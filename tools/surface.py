"""List the public surface of a checkout, one ``module.name`` per line.

Usage:

    python tools/surface.py ROOT

imports hardylab from ``ROOT/src`` and prints ``module.name`` for each
entry of the ``__all__`` of the six modules that ``perfbench/tracer.py``
wraps (its ``MODULES``), in that order, then ``errors.Name`` for each
class that ``hardylab.errors`` defines.  The tracer wraps the names in
``__all__``, so ``diff`` of two checkouts' listings shows each name a
change adds or removes, and with it each traced name that stops matching.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

from tracer import MODULES  # noqa: E402
from worker import import_hardylab  # noqa: E402


def surface() -> list[str]:
    """``module.name`` of each public name and each error class of the
    imported hardylab."""
    names = [f"{module}.{name}" for module in MODULES
             for name in importlib.import_module(f"hardylab.{module}").__all__]
    errors = importlib.import_module("hardylab.errors")
    names += [f"errors.{name}" for name, obj in vars(errors).items()
              if inspect.isclass(obj) and obj.__module__ == errors.__name__]
    return names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="checkout whose src/hardylab is listed")
    import_hardylab(parser.parse_args().root)
    print("\n".join(surface()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
