"""Numerical laboratory for critical-case fractional boundary Hardy inequalities.

The package measures both sides of weighted boundary Hardy inequalities at
the critical couplings s*p = 1 and s*p = d: exact domain geometry and
dyadic decompositions (``geometry``), deterministic singular-kernel
quadrature for Gagliardo seminorms (``quadrature``), the logarithmic
weight functionals and their exponent tables (``hardy``), supporting
inequalities as executable slack checks (``lemmas``), and the scientific
experiment drivers (``experiments``).  ``cli`` is the batch front door.

Each object has one name, in its module (``hardylab.geometry.Slab``); the
package binds only the modules.  ``lemmas`` alone needs mpmath, so it
loads on first access (PEP 562): ``import hardylab`` and every command
but ``lemma-suite`` import neither.  A dataclass generates ``__eq__`` and
``__repr__`` only where a caller compares or prints its instances by
value; the others pass ``eq=False, repr=False``, as each generated method
costs an ``exec`` at import.
"""

__version__ = "0.1.0"

from . import cli, experiments, geometry, hardy, quadrature


def __getattr__(name: str):
    """Load ``lemmas`` (and with it mpmath) when it is first asked for."""
    if name == "lemmas":
        from importlib import import_module

        return import_module(".lemmas", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
