"""Numerical laboratory for critical-case fractional boundary Hardy inequalities.

The package measures both sides of weighted boundary Hardy inequalities at
the critical couplings s*p = 1 and s*p = d: exact domain geometry and
dyadic decompositions (``geometry``), deterministic singular-kernel
quadrature for Gagliardo seminorms (``quadrature``), the logarithmic
weight functionals and their exponent tables (``hardy``), supporting
inequalities as executable slack checks (``lemmas``), and the scientific
experiment drivers (``experiments``).  ``cli`` is the batch front door.
"""

__version__ = "0.1.0"

from . import cli, experiments, geometry, hardy, lemmas, quadrature
from .errors import (
    CaseDispatchError,
    DegenerateInputError,
    DomainMembershipError,
    EvaluationError,
    HardyLabError,
    ParameterError,
    UnsupportedDomainError,
    WeightDomainError,
)
from .experiments import (
    BoundaryBumpFamily,
    LogSpikeFamily,
    ProbeResult,
    SearchConfig,
    TensorBumpGridFamily,
    blowup_probe,
    estimate_constant,
    telescoping_reconstruction,
    three_point_signature,
)
from .geometry import (
    Annulus,
    Box,
    BoxDomain,
    Epigraph,
    ExteriorBall,
    Polygon2D,
    Slab,
    annuli,
    bilipschitz_bound,
    distance_to_boundary,
    dyadic_layers,
    flatten,
    parent_cube,
    unflatten,
)
from .hardy import (
    HardyCase,
    WeightSpec,
    critical_exponents,
    hardy_lhs,
    hardy_ratio,
    holder_interpolation_check,
    weight_value,
)
from .lemmas import (
    SlackReport,
    average_difference_slack,
    elementary_inequality_slack,
    maximizer_x0,
    power_sum_slack,
    scaled_sobolev_ratio,
)
from .quadrature import (
    Constant,
    FracParams,
    GridSpec,
    LogSpike,
    TensorBump,
    average,
    gagliardo_seminorm,
    integrate,
    lp_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
