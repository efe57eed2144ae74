"""Moment-based reconstruction of nonnegative densities on the unit square
from (noisy, kernel-smoothed) line-integral data, with an independent
Fourier-domain inversion path for cross-validation."""

from .density_recon import (
    ReconGrid,
    minimized_sup_error_bound,
    moment_approximation,
    phantom_image,
    reconstruct_grid,
    relative_l2_error,
    sup_error,
    sup_error_bound,
)
from .mollifiers import MollifierSpec, make_kernel
from .moment_recovery import (
    AngularMomentSet,
    angular_moments,
    deconvolve_moments,
    recover_moment_table,
    solve_moment_system,
)
from .numerics import Grid1D, log_gamma
from .phantoms import (
    Density,
    DiskDensity,
    MomentTable,
    PolynomialDensity,
    SumOfDisksDensity,
    UniformDensity,
)
from .projector import (
    Sinogram,
    add_noise,
    evenness_residual,
    full_circle_grid,
    half_circle_grid,
    l1_norm,
    moment_angle_grid,
    mollify,
    offset_grid,
    project,
)
from .spectral import (
    apply_filter,
    backproject,
    fbp_reconstruct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
