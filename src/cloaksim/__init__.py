"""Finite element experiments for cloaking in quasilinear conductivity.

The package builds layered disk meshes, solves -div(A(x,u) grad u) = 0 by
Newton's method with a Picard safeguard, evaluates Dirichlet-to-Neumann maps
variationally, and runs the cloaking experiments: regular (approximate)
cloaks by blow-up maps, truncated singular cloaks, and isotropic
approximations obtained from periodic homogenization of radial laminates.
"""

from .errors import CloakSimError, NumericalError, PreconditionError
from .coeff import (
    CoefficientField,
    IsotropicField,
    ProductField,
    StructureConstants,
    constant_field,
    identity_field,
    piecewise_field,
    validate_structure,
)
from .geometry import (
    DiffMap,
    fd_jacobian,
    pushforward,
    regular_blowup,
    singular_cloak_tensor,
    singular_map,
    transformed_inner_tensor,
    truncated_singular_cloak,
)
from .fem import TriMesh, build_disk_mesh
from .qsolve import PicardConfig, QSolveResult, dn_pairing, solve_quasilinear
from .dnmap import DtNOperator, FourierBasis, dn_difference, dn_operator, neumann_trace_error
from .homog import (
    CellProblem,
    HomogenizedTensor,
    RadialCloakSpec,
    build_isotropic_cloak_sequence,
    cell_means,
    cloak_targets,
    default_schedule,
    fit_cloak_amplitudes,
    radial_homogenized,
    solve_cell,
)
from .presets import inclusion_field, parse_preset, preset_field
from .experiments import (
    DecayReport,
    ExperimentConfig,
    emit_report,
    fit_loglog,
    run_diffeo_invariance,
    run_homogenization_sweep,
    run_regular_cloak_sweep,
    run_truncated_singular_sweep,
)

__version__ = "0.1.0"
