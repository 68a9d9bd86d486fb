"""Machine-speed reference: a fixed job in a fresh process.

    python3 perfbench/calibrate.py

The job does the kinds of work a benchmark pass does, in the same kind of
process: interpreter start and the numpy import, a pure-Python loop of
float arithmetic and calls, and a numpy pair-block sum over a fixed grid
with fresh temporaries.  It runs no hardylab code, so a change to the
program under test cannot move it.  run.py times it from spawn to exit
before and after every pass, and scales the pass's times by
``REFERENCE_S`` over the mean of the two (see README.md, *Machine speed*).
"""

from __future__ import annotations

#: typical time of this job, spawn to exit, on the machine described in
#: README.md: the speed that the scaled times are quoted at
REFERENCE_S = 0.55


def python_part(n: int = 600_000) -> float:
    """Compensated summation in a plain loop, with a call per term."""

    def term(i: int) -> float:
        return ((i * 7919) % 1000) * 1e-3

    total = comp = 0.0
    for i in range(n):
        y = term(i) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def numpy_part(n: int = 48, block: int = 256) -> float:
    """Row blocks of |v_i - v_j|^2 / |x_i - x_j|^3 over the pairs i < j of
    an n x n grid of the unit square, one set of temporaries per block."""
    import numpy as np

    x = (np.arange(n) + 0.5) / n
    centers = np.stack([a.ravel() for a in np.meshgrid(x, x)], axis=1)
    vals = np.exp(-8.0 * ((centers - 0.5) ** 2).sum(axis=1))
    m = len(vals)
    idx = np.arange(m)
    total = 0.0
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        diff = centers[i0:i1, None, :] - centers[None, i0:, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        du = np.abs(vals[i0:i1, None] - vals[None, i0:])
        with np.errstate(divide="ignore", invalid="ignore"):
            total += float(np.sum(np.where(idx[None, i0:] > idx[i0:i1, None],
                                           du**2 / d2**1.5, 0.0)))
    return total


def main() -> int:
    python_part()
    numpy_part()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
