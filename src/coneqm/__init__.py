"""Quantum mechanics of a particle on a conical surface.

Closed-form Euclidean radial propagators, exact spectra and wavefunctions of
the conical oscillator (harmonic attraction plus inverse-square repulsion),
the conical geometry with its curvature-induced effective potential, and
independent numerical oracles (finite-difference eigensolver with selectable
curvature term, time-sliced transfer-matrix path integral, asymptotic
recombination check) that test the central consistency statement: the sliced
radial path integral on the cone agrees with the Schroedinger equation only
when the curvature term has the Jensen-Koppe form -(hbar^2/2M) H^2.
"""

__version__ = "0.1.0"

from .geometry import (ConeGeometry, ImaginaryIndexError, NotEmbeddableError,
                       PhysicalConstants, UnderflowError,
                       cone_from_deficit_angle, cone_from_sigma,
                       cone_from_string_density, coupled_index_nu,
                       deficit_angle, effective_index_mu, effective_potential,
                       embed, gaussian_curvature_strength, mean_curvature,
                       string_density)
from .grids import RadialGrid
from .oracles import (CurvatureTermMode, TransferMatrixResult,
                      eigen_lowest, podolsky_index, radial_hamiltonian_matrix,
                      recombination_ratio, spectrum_match_report,
                      transfer_matrix_kernel)
from .propagator import (FullKernel, KernelQuery, SemigroupResult,
                         SpectralKernel, full_kernel, partial_wave_trace,
                         partial_wave_trace_exact, radial_kernel_closed,
                         radial_kernel_spectral, semigroup_defect)
from .specfun import bessel_i_scaled, hyp1f1_terminating, ln_gamma
from .spectrum import (OscillatorModel, QuantumNumbers, StateRecord,
                       energy, enumerate_states, normalization_log, potential,
                       radial_wavefunction, radial_wavefunctions, wavefunction)
