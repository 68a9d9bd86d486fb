"""Numerical laboratory for critical-case fractional boundary Hardy inequalities.

The package measures both sides of weighted boundary Hardy inequalities at
the critical couplings s*p = 1 and s*p = d: exact domain geometry and
dyadic decompositions (``geometry``), deterministic singular-kernel
quadrature for Gagliardo seminorms (``quadrature``), the logarithmic
weight functionals and their exponent tables (``hardy``), supporting
inequalities as executable slack checks (``lemmas``), and the scientific
experiment drivers (``experiments``).  ``cli`` is the batch front door.

``lemmas`` alone needs mpmath, so it and its names load on first access
(PEP 562): ``import hardylab`` and every command but ``lemma-suite``
import neither.  A dataclass generates ``__eq__`` and ``__repr__`` only
where a caller compares or prints its instances by value; the others pass
``eq=False, repr=False``, as each generated method costs an ``exec`` at
import.
"""

__version__ = "0.1.0"

from . import cli, experiments, geometry, hardy, quadrature
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
from .quadrature import (
    Constant,
    FracParams,
    GridSpec,
    LogSpike,
    TensorBump,
    gagliardo_seminorm,
    integrate,
    lp_norm,
)

#: the names of ``lemmas`` that the package re-exports
_LEMMA_NAMES = (
    "SlackReport",
    "average_difference_slack",
    "elementary_inequality_slack",
    "maximizer_x0",
    "power_sum_slack",
    "scaled_sobolev_ratio",
)

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["lemmas", *_LEMMA_NAMES])


def __getattr__(name: str):
    """Load ``lemmas`` (and with it mpmath) when it or one of its names is
    first asked for."""
    if name == "lemmas" or name in _LEMMA_NAMES:
        from importlib import import_module

        lemmas = import_module(".lemmas", __name__)
        return lemmas if name == "lemmas" else getattr(lemmas, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
