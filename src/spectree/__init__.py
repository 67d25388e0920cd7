"""Spectral analysis of perturbed Laplacians on regular rooted k-ary trees.

The pipeline: build a truncated tree, decompose its function space into
invariant blocks, evaluate the free resolvent in closed form (summed over
the blocks, each kernel entry is a function of the depths ``|x|``, ``|y|``
and ``|x∧y|``, so it is gathered from one small meet-depth table), sandwich
it by a decaying perturbation, and count the parameters where the
sandwiched family hits ``-1`` with an operator-valued argument principle.
"""
from .birman_schwinger import (
    BSFactory,
    HOL_COMPANION_FACTOR,
    hol_split,
    phase_ratio,
    polar_factors,
    support_vertices,
)
from .charval import (
    ContourSpec,
    IndexReport,
    ScanReport,
    SpectrumResult,
    absence_scan,
    contour_index,
    resonance_indicator,
    riesz_multiplicity,
    spectrum,
)
from .decomposition import (
    SphericalBasis,
    build_spherical_basis,
    projector,
    verify_jacobi_form,
)
from .errors import (
    AssumptionViolated,
    BranchFailure,
    CapacityExceeded,
    IndexOutOfRange,
    InvalidParameter,
    NonConvergent,
    NotIsolated,
    NumericalRankFailure,
    OnSpectrum,
    OutOfDisk,
    RootHasNoParent,
    SingularOnContour,
    SpectreeError,
)
from .operators import (
    PotentialSpec,
    adjacency,
    degree_terms,
    delta_floor,
    free_operator,
    laplacian,
    lowering,
    m_tilde,
    perturbed_operator,
    potential_matrix,
    raising,
    theta,
    weights,
)
from .resolvent import (
    KERNEL_PREFACTOR,
    KernelMatrix,
    ResolventKernel,
    SpectralPoint,
    direct_resolvent_block,
    disk_radius,
    fourier_coefficient,
    from_lambda,
    from_z,
    sine_projected_coefficient,
    t_minus,
    t_plus,
    weighted_resolvent_kernel,
)
from .tree import TreeGraph, build_tree, children, parent, vertex_depth

__version__ = "0.1.0"
