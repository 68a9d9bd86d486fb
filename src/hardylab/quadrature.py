"""Deterministic quadrature: integrals, L^p norms and the Gagliardo seminorm.

Everything is a midpoint rule on axis-aligned cells.  Uniform tensor grids
come from a ``GridSpec``; unions of boxes and masked boxes (annuli,
epigraph clips) produce the same ``Grid`` value, so every functional below
works on any of them.  ``run_grid`` repeats a base grid under the powers of
one similarity (the axis-0 planes of a box, a telescope layer pair's
columns of cubes, the dyadic blocks of the 1-D graded mesh) and is the
only code that sets a grid's runs; any other grid is one run.
``union_grid`` marks the grid of a single box in d >= 2 as such
(``Grid.lattice``), and a masked box keeps that grid, whose runs its pair
sum sweeps.  One plane sweep sums the seminorm's cell pairs by run offset,
except on a box in d >= 2 at an even integer p <= 8, whose pair sum is a
few FFT convolutions with the box's table of offset powers.

Determinism contract: single sums are correctly rounded (``math.fsum``),
so they do not depend on the summation order.  The double sum over cell
pairs is split into fixed pieces whose partial sums are combined in a fixed
order: one partial per run offset and fixed-size chunk of a run's cells,
in offset order.  A place in the runs whose cell holds 0 in every run,
with the same mask in every run, is dead: its pairs' terms are those of
a stand-in cell of value 0 and that mask, so the sweep forms the
differences of the live places and one stand-in per mask value, summed
in the order the whole block's would be, and each partial keeps its
bits.  Where the runs shrink (the dyadic blocks), the offsets past the
first ``_CUT_HEAD`` stop where a rigorous bound of the rest falls to
``_TAIL_CUT`` (2^-53, the unit roundoff) of the sum so far, a point set
by the grid and the values alone.  On an even-p box it is one partial
from ``numpy.fft`` convolutions, of the values less their median; where its
positive terms exceed it by more than ``_FFT_CANCELLATION`` times, the
sweep's partials replace it.  The chunking fixes the partials, and the
sweep computes them one after another in that order, so a result
reproduces bit for bit for the same grid and values.

The Gagliardo seminorm

    [u]_{W^{s,p}}^p = int int |u(x)-u(y)|^p / |x-y|^{d+sp} dx dy

is singular on the diagonal.  Distinct cell pairs use plain midpoints; the
same-cell contribution uses a per-cell Lipschitz estimate L and integrates
L^p |x-y|^{p-d-sp} in the radial variable over the equivalent-volume ball,
which keeps the diagonal mass instead of dropping it (dropping it biases
the seminorm low exactly in the critical regime).  The patch is (L c)^p
from a per-cell root c, so the seminorm forms only two powers of a cell
side, the range rule ``check_cell_side`` keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
import numpy.fft  # numpy loads these on first use: here, that is at import
import numpy.polynomial

from . import geometry as geo
from .errors import EvaluationError, ParameterError
from .geometry import Box

__all__ = [
    "FracParams",
    "GridSpec",
    "Grid",
    "TestFunction",
    "TensorBump",
    "LogSpike",
    "AxisPolynomial",
    "masked_grid",
    "union_grid",
    "run_grid",
    "grid_box",
    "as_grid",
    "integrate",
    "gagliardo_seminorm",
    "SeminormTables",
    "check_cell_side",
    "check_member",
    "check_support",
    "kahan_sum",
]


# ---------------------------------------------------------------------------
# fractional parameters


def _as_fraction(x) -> Fraction:
    if isinstance(x, float) and x != int(x):
        raise ParameterError(
            f"exponent {x!r} must be given exactly (int, Fraction or 'num/den' string)"
        )
    if not isinstance(x, (Fraction, int, str, float)):
        raise ParameterError(f"cannot interpret {x!r} as an exact rational")
    return Fraction(x)


@dataclass(frozen=True, eq=False, repr=False)
class FracParams:
    """Parameters (d, p, s, tau) of the fractional functional.

    p, s, tau are exact rationals so the critical loci sp = 1 and sp = d
    are decided without float tolerance.
    """

    d: int
    p: Fraction
    s: Fraction
    tau: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", _as_fraction(self.p))
        object.__setattr__(self, "s", _as_fraction(self.s))
        object.__setattr__(self, "tau", _as_fraction(self.tau))
        if self.d < 1:
            raise ParameterError("dimension must be >= 1")
        if self.p <= 1:
            raise ParameterError("p must exceed 1")
        if not 0 < self.s < 1:
            raise ParameterError("s must lie in (0, 1)")
        if self.tau < 1:
            raise ParameterError("tau must be >= 1")

    @property
    def sp(self) -> Fraction:
        return self.s * self.p

    @property
    def p_star(self) -> Fraction:
        """Critical Sobolev exponent d p / (d - sp); defined only for sp < d."""
        if self.sp >= self.d:
            raise ParameterError("p* requires sp < d")
        return self.d * self.p / (self.d - self.sp)


# ---------------------------------------------------------------------------
# grids


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False, repr=False)
class GridSpec:
    """Uniform tensor midpoint grid: ``resolution`` cells per axis on a box."""

    resolution: int
    support_box: Box

    def __post_init__(self):
        if self.resolution < 8 or not _is_power_of_two(self.resolution):
            raise ParameterError("resolution must be a power of two >= 8")


@dataclass(frozen=True, eq=False, repr=False)
class Grid:
    """Concrete quadrature mesh: midpoint nodes with per-cell sides/weights.

    Node order is the construction order and is part of the value; all
    summation contracts reference it.  The cells are ``planes`` runs of
    equally many cells, run j the image of run 0 under the j-th power of
    one similarity (see ``run_grid``).  ``lattice`` marks the n^d cells of
    one box in C order, d >= 2, whose runs are its n axis-0 planes, and
    ``within`` holds the box grid whose cells a masked grid keeps and the
    flat indices of the kept cells in it.  Each of these has one setter:
    ``run_grid`` sets ``planes``, ``union_grid`` sets ``lattice`` and
    ``masked_grid`` sets ``within``.  A constructor or
    ``dataclasses.replace`` can set none of them, so a grid built either
    way is one unmarked run that stands alone.
    """

    centers: np.ndarray  # (M, d)
    sides: np.ndarray  # (M, d)
    weights: np.ndarray  # (M,)
    planes: int = field(default=1, init=False)
    lattice: bool = field(default=False, init=False)
    within: tuple[Grid, np.ndarray] | None = field(default=None, init=False)

    def __post_init__(self):
        if len(self.centers) == 0:
            raise ParameterError("grid has no cells")

    @property
    def d(self) -> int:
        return self.centers.shape[1]

    @property
    def ncells(self) -> int:
        return self.centers.shape[0]

    @property
    def total_weight(self) -> float:
        return kahan_sum(self.weights)


def union_grid(boxes: Sequence[Box], cells_per_axis: int) -> Grid:
    """Concatenated per-box uniform grids, in the given box order.

    The boxes are assumed disjoint; each gets ``cells_per_axis`` cells per
    axis, in C order, so geometrically graded meshes refine toward small
    boxes.  A single box in d >= 2 is the ``run_grid`` of its first axis-0
    plane of cells, plane j plane 0 moved j cell sides along axis 0, and is
    marked ``lattice``: the only grid that is.
    """
    if not boxes:
        raise ParameterError("need at least one box")
    n = cells_per_axis
    lo = np.array([b.lo for b in boxes], dtype=float)  # (B, d)
    h = (np.array([b.hi for b in boxes], dtype=float) - lo) / n
    ticks = lo[..., None] + h[..., None] * (np.arange(n) + 0.5)  # (B, d, n)
    B, d = lo.shape
    runs = n if B == 1 and d > 1 else 1
    counts = (n // runs,) + (n,) * (d - 1)  # cells per axis of the first run
    centers = np.empty((B,) + counts + (d,))
    for a, k in enumerate(counts):
        centers[..., a] = ticks[:, a, :k].reshape((B,) + (1,) * a + (k,) + (1,) * (d - a - 1))
    sides = np.repeat(h, math.prod(counts), axis=0)
    grid = Grid(centers.reshape(-1, d), sides, np.prod(sides, axis=-1))
    if runs == 1:
        return grid
    box = run_grid(grid, runs, step=np.eye(d)[0] * h[0, 0])
    object.__setattr__(box, "lattice", True)
    return box


def run_grid(base: Grid, runs: int, scale: float = 1.0, step=0.0) -> Grid:
    """``runs`` copies of ``base``, run j its image under the j-th power of
    the similarity x -> scale x + step, cell by cell: centres mapped, sides
    times scale^j, weights the product of the sides.  The similarity is a
    dilation (``scale``) or a translation (``step``), not both, so run j is
    run j - 1 times scale or plus step: one ``multiply.accumulate`` or
    ``add.accumulate`` over the runs.

    The seminorm sums the pairs of such a grid by run offset, from one
    kernel table per offset between run 0 and that run.
    """
    if runs < 1:
        raise ParameterError("need at least one run")
    if not scale > 0:
        raise ParameterError(f"run scale must be positive, got {scale!r}")
    if scale != 1 and np.any(np.asarray(step) != 0):
        raise ParameterError("a run grid's similarity is a scale or a step, not both")

    def repeated(first, op, by):  # first, first op by, (first op by) op by, ...
        stack = np.empty((runs,) + first.shape)
        stack[0], stack[1:] = first, by
        return op.accumulate(stack, axis=0).reshape(-1, first.shape[-1])

    sides = repeated(base.sides, np.multiply, scale)
    centers = (repeated(base.centers, np.add, step) if scale == 1
               else repeated(base.centers, np.multiply, scale))
    grid = Grid(centers, sides, np.prod(sides, axis=-1))
    object.__setattr__(grid, "planes", runs)
    return grid


def masked_grid(spec: GridSpec, keep: Callable[[np.ndarray], np.ndarray]) -> Grid:
    """Uniform grid restricted to cells whose centers satisfy ``keep``, in
    the box grid's order; ``within`` holds that grid and the kept indices."""
    g = union_grid([spec.support_box], spec.resolution)
    mask = np.asarray(keep(g.centers), dtype=bool)
    if not np.any(mask):
        raise ParameterError("mask removed every cell of the grid")
    kept = np.flatnonzero(mask)
    grid = Grid(g.centers[kept], g.sides[kept], g.weights[kept])
    object.__setattr__(grid, "within", (g, kept))
    return grid


def grid_box(domain: geo.Domain, support_box: Box) -> Box:
    """The box whose cells ``as_grid`` keeps: the support box, clipped
    to the domain if it is box-shaped."""
    box = support_box.intersect(domain.box) if isinstance(domain, geo.BoxShaped) else support_box
    if box is None:
        raise ParameterError("support box does not meet the domain")
    return box


def as_grid(grid, domain: geo.Domain | None = None) -> Grid:
    """A ``Grid`` itself, or a ``GridSpec``'s grid over (domain intersect
    support box): a box-shaped domain clips the support box exactly, any
    other keeps the cells whose centers lie inside it."""
    if isinstance(grid, Grid):
        return grid
    if not isinstance(grid, GridSpec):
        raise ParameterError(f"expected GridSpec or Grid, got {type(grid).__name__}")
    if domain is None:
        return union_grid([grid.support_box], grid.resolution)
    if isinstance(domain, geo.BoxShaped):
        return union_grid([grid_box(domain, grid.support_box)], grid.resolution)
    return masked_grid(grid, domain.contains)


# ---------------------------------------------------------------------------
# summation helpers


def kahan_sum(values: np.ndarray) -> float:
    """Correctly rounded sum (``math.fsum``); independent of the order."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


#: element budget of one chunk of the plane sweep; it fixes the partial
#: sums and their order
_PAIR_CHUNK = 1 << 17

#: largest ratio of the FFT pair sum's positive terms to the sum itself,
#: past which the sweep sums the pairs instead.  On boxes of 32^2 to 256^2
#: cells at p = 2 and 4 the FFT's relative error stayed below the double
#: epsilon times this ratio, so the bound keeps it below about 2.2e-13
_FFT_CANCELLATION = 1e3

#: run offsets the sweep of a grid of shrinking runs sums before it bounds
#: the rest, and the share of their sum below which it drops that rest (the
#: unit roundoff: the sum moves by no more than one rounding of it)
_CUT_HEAD = 8
_TAIL_CUT = 2.0**-53


# ---------------------------------------------------------------------------
# test functions


class TestFunction:
    """Compactly supported evaluation rule with a declared support box."""

    support: Box

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def d(self) -> int:
        return self.support.d

    def dilated(self, lam: float) -> "TestFunction":
        """x -> u(x / lam) supported on the lam-dilated box."""
        return _Dilated(self, lam)


@dataclass(frozen=True, eq=False, repr=False)
class _Dilated(TestFunction):
    base: TestFunction
    lam: float

    @property
    def support(self) -> Box:  # type: ignore[override]
        return self.base.support.scaled(self.lam)

    def __call__(self, pts):
        return self.base(np.asarray(pts, dtype=float) / self.lam)


def _bump_profile(t: np.ndarray) -> np.ndarray:
    """cos^2 bump on |t| < 1; C^1 with vanishing slope at the edges."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.cos(0.5 * math.pi * t[inside]) ** 2
    return out


def _tensor_profile(t: np.ndarray) -> np.ndarray:
    """Product of the cos^2 bumps of the columns of t, in column order."""
    vals = np.ones(len(t))
    for a in range(t.shape[1]):
        vals *= _bump_profile(t[:, a])
    return vals


@dataclass(frozen=True, eq=False, repr=False)
class TensorBump(TestFunction):
    """Product of per-axis cos^2 bumps centered at ``center`` with ``radius``."""

    center: tuple[float, ...]
    radius: tuple[float, ...]

    def __post_init__(self):
        if len(self.center) != len(self.radius):
            raise ParameterError("center and radius dimensions differ")
        if any(r <= 0 for r in self.radius):
            raise ParameterError("radii must be positive")

    @property
    def support(self) -> Box:  # type: ignore[override]
        return Box(
            tuple(c - r for c, r in zip(self.center, self.radius)),
            tuple(c + r for c, r in zip(self.center, self.radius)),
        )

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _tensor_profile((pts - np.asarray(self.center)) / np.asarray(self.radius))


@dataclass(frozen=True, eq=False, repr=False)
class LogSpike(TestFunction):
    """Concentrating profile, piecewise linear in t = log2(2 / x_d).

    Rises over t in [t0, t0 + depth], sits at 1 over [t0 + depth,
    t0 + 2 depth], falls back to 0 over [t0 + 2 depth, t0 + 3 depth]; both
    ramps are logarithmic in x_d, so the transition cost of each ramp in a
    critical seminorm shrinks like 1/depth while the unit plateau spans
    ``depth`` dyadic levels.  Transverse axes (if any) carry a cos^2 bump
    over ``transverse``.
    """

    depth: float
    t0: float = 1.5
    transverse: Box | None = None  # support box in the first d-1 axes

    def __post_init__(self):
        if self.depth < 1:
            raise ParameterError("depth must be >= 1")

    @property
    def support(self) -> Box:  # type: ignore[override]
        lo_d = 2.0 ** (1.0 - self.t0 - 3.0 * self.depth)
        hi_d = 2.0 ** (1.0 - self.t0)
        if self.transverse is None:
            return Box((lo_d,), (hi_d,))
        return Box(self.transverse.lo + (lo_d,), self.transverse.hi + (hi_d,))

    def axis_profile(self, xd: np.ndarray) -> np.ndarray:
        # the nearer ramp clipped to [0, 1]; t = +inf at x_d <= 0 gives 0
        xd = np.asarray(xd, dtype=float)
        pos = xd > 0
        t = np.full_like(xd, np.inf)
        t[pos] = np.log2(2.0 / xd[pos])
        D = self.depth
        return np.clip(np.minimum(t - self.t0, self.t0 + 3 * D - t) / D, 0.0, 1.0)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vals = self.axis_profile(pts[:, -1])
        if self.transverse is not None:
            c = np.asarray(self.transverse.center)
            r = 0.5 * np.asarray(self.transverse.sides())
            t = (pts[:, :-1] - c) / r
            for a in range(t.shape[1]):
                vals = vals * _bump_profile(t[:, a])
        return vals


@dataclass(frozen=True, eq=False, repr=False)
class AxisPolynomial(TestFunction):
    """Polynomial in one coordinate, truncated at the support box.

    Not continuous at the support edge in general; meant for exact-value
    checks where the support equals the whole integration region.
    """

    coeffs: tuple[float, ...]
    support: Box
    axis: int = 0

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x = pts[:, self.axis]
        vals = np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))
        vals = np.where(self.support.contains(pts), vals, 0.0)
        return vals


# ---------------------------------------------------------------------------
# integrals


def _evaluate(f: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """f at the (N, d) points, checked: f is a function on R^d
    (``check_member``) with one finite value per point."""
    check_member(f, points.shape[1])
    vals = np.asarray(f(points), dtype=float)
    if vals.shape != (len(points),):
        raise EvaluationError(
            f"integrand returned shape {vals.shape}, expected ({len(points)},)"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = points[np.argmax(bad)]
        raise EvaluationError(f"integrand is not finite at node {tuple(node)}", node=node)
    return vals


def integrate(f, grid, domain: geo.Domain | None = None) -> float:
    """Midpoint-rule integral of f over the grid, correctly rounded sum.

    ``f`` is any vectorized callable on (M, d) arrays; ``grid`` may be a
    GridSpec (optionally clipped to ``domain``) or a prebuilt Grid.
    """
    g = as_grid(grid, domain)
    vals = _evaluate(f, g.centers)
    return kahan_sum(vals * g.weights)


# ---------------------------------------------------------------------------
# Gagliardo seminorm


def _abs_pow(x: np.ndarray, p: float) -> np.ndarray:
    """``|x|^p`` in place.  An integer p <= 8 takes p - 1 multiplications
    (relative error below p ulp), far cheaper than numpy's general power."""
    if p == 2:
        return np.square(x, out=x)
    np.abs(x, out=x)
    if p.is_integer() and p <= 8:
        base = x.copy()
        for _ in range(int(p) - 1):
            x *= base
    else:
        x **= p
    return x


def _plane_sweep(U, p, kernel, m=None, tail=None):
    """Pair sums of the cells of n0 planes of n_rest cells, by plane offset.

    ``U`` holds the values, shape (n0, n_rest).  Two distinct cells are
    k0 >= 0 planes apart; for each k0 and each chunk of rows a of the plane,

        T[a, b] = sum over x0 of |U(x0, a) - U(x0 + k0, b)|^p m(x0, a) m(x0 + k0, b)

    (m left as None is 1) is contracted with ``kernel(k0, a0, a1, c0)``,
    the kernel between the rows a0:a1 of a plane and the columns c0: of
    the plane k0 further on.  At k0 = 0 only the pairs b > a count (the
    strict upper triangle): a chunk's columns start at its first row, and
    its leading square, which is symmetric with a zero diagonal, counts
    half.  One partial per (k0, row chunk), in that order.  T is summed
    over x0 a fixed step of planes at a time, set by the size of the whole
    block; a step whose planes hold only zeros adds exact zeros and is
    skipped.

    A place of the plane whose value is 0 in every plane, with the same
    mask in every plane, is dead: its row and column of T are those of a
    stand-in place of value 0 and that mask.  So the block of T whose rows
    and columns are the stand-ins (one per mask value) and the live places
    holds every distinct entry of T, each the same sum in the same order:
    numpy adds the planes of a C-ordered block of more than one entry one
    after another, and a block of one entry is a stand-in's 0.  A chunk
    sums that block and spreads it over T when the differences it saves
    outnumber T's entries, which no chunk of one plane does.

    Where the whole block of more than one plane fits one chunk (n0
    n_rest^2 <= ``_PAIR_CHUNK``), every chunk is the one row chunk of its
    offset and one step of all planes.  Its operands are then formed once
    per call, ``R = repeat(U, n_rest, axis=1)`` and ``C = tile(U, (1,
    n_rest))`` (the mask alike), whose entry a n_rest + b is row a and
    column b of T, and each offset's differences are one contiguous
    ``R[:n0 - k0] - C[k0:]``: the same entries, the planes added one
    after another, so T keeps its bits.  A chunk that gathers keeps its
    block.  A chunk whose every step would be skipped is a partial of 0.0,
    for which no kernel is asked.

    ``tail[r]``, if given, bounds the sum of the partials of the offsets
    k0 >= r at values of spread (max U - min U) 1.  The offsets below
    ``_CUT_HEAD`` are swept first; L is the ``math.fsum`` of their
    partials, and the sweep stops at the least offset r >= ``_CUT_HEAD``
    with tail[r] spread^p <= ``_TAIL_CUT`` L.  Every partial is >= 0, so
    the offsets dropped add at most ``_TAIL_CUT`` of the sum returned.  r
    depends on the values alone.
    """
    n0, n_rest = U.shape
    rows = max(1, _PAIR_CHUNK // n_rest)
    chunks = range(0, n_rest, rows)
    filled, gathering, flat = [0, 1], False, False  # one plane: one step, and no chunk gathers
    if n0 > 1:
        nonzero = U != 0
        filled = [0] + np.cumsum(nonzero.any(axis=1)).tolist()  # planes below x0 with a value
        dead = ~nonzero.any(axis=0)
        if m is not None:
            dead &= (m == m[0]).all(axis=0)
        gathering = bool(dead.any())
        flat = n0 * n_rest * n_rest <= _PAIR_CHUNK
    if flat:
        R, C = np.repeat(U, n_rest, axis=1), np.tile(U, (1, n_rest))
        if m is not None:
            mR, mC = np.repeat(m, n_rest, axis=1), np.tile(m, (1, n_rest))
    if gathering:
        # the stand-ins follow the last place, one per mask value of a dead
        # place; a place's slot is its row (column) of the block: its
        # stand-in's, or after the stand-ins by its rank among the live
        masks = np.unique(m[0, dead]) if m is not None else np.ones(1)
        pads = len(masks)
        U_pad = np.concatenate((U, np.zeros((n0, pads))), axis=1)
        m_pad = None if m is None else np.concatenate((m, np.tile(masks, (n0, 1))), axis=1)
        live, stand_ins = np.flatnonzero(~dead), np.arange(n_rest, n_rest + pads)
        ranked = np.cumsum(~dead)  # live places up to and including each place
        lives = [0] + ranked.tolist()
        slot = np.where(dead, np.searchsorted(masks, m[0]) if m is not None else 0,
                        pads - 1 + ranked)

    def places(lo, hi):
        """The block's places for lo:hi: its stand-ins and live places, and
        the row (column) of the block that each place of lo:hi takes."""
        i, j = lives[lo], lives[hi]
        at = slot[lo:hi]
        return np.concatenate((stand_ins, live[i:j])), np.where(at < pads, at, at - i)

    def one_chunk(k0, a0) -> float:
        if filled[n0 - k0] == 0 and filled[n0] == filled[k0]:
            return 0.0  # no step has a plane with a value: T is 0
        a1 = min(a0 + rows, n_rest)
        c0 = a0 if k0 == 0 else 0
        size = (a1 - a0) * (n_rest - c0)
        step = max(1, _PAIR_CHUNK // size)
        gathered = False
        if gathering:
            block = (pads + lives[a1] - lives[a0]) * (pads + lives[n_rest] - lives[c0])
            gathered = (n0 - k0) * (size - block) > size
        # the two operands of a step's differences, indexed by plane first
        if gathered:  # ``take`` keeps C order, as the slices below have it
            (r_pick, r_at), (c_pick, c_at) = places(a0, a1), places(c0, n_rest)
            Ur, Uc = U_pad.take(r_pick, axis=1)[:, :, None], U_pad.take(c_pick, axis=1)[:, None]
            if m is not None:
                mr = m_pad.take(r_pick, axis=1)[:, :, None]
                mc = m_pad.take(c_pick, axis=1)[:, None]
        elif flat:
            Ur, Uc = R, C
            if m is not None:
                mr, mc = mR, mC
        else:
            Ur, Uc = U[:, a0:a1, None], U[:, None, c0:]
            if m is not None:
                mr, mc = m[:, a0:a1, None], m[:, None, c0:]
        T = np.zeros(np.broadcast_shapes(Ur.shape[1:], Uc.shape[1:]))
        for x0 in range(0, n0 - k0, step):
            x1 = min(x0 + step, n0 - k0)
            if filled[x1] == filled[x0] and filled[x1 + k0] == filled[x0 + k0]:
                continue
            diff = Ur[x0:x1] - Uc[x0 + k0 : x1 + k0]
            _abs_pow(diff, p)
            if m is not None:
                diff *= mr[x0:x1]
                diff *= mc[x0 + k0 : x1 + k0]
            T += diff.sum(axis=0)
        if gathered:
            T = T.take(r_at, axis=0).take(c_at, axis=1)
        with np.errstate(invalid="ignore"):
            TK = T.reshape(a1 - a0, -1) * kernel(k0, a0, a1, c0)
        if k0 == 0:  # the leading square holds each pair twice
            return 0.5 * float(np.sum(TK[:, : a1 - a0])) + float(np.sum(TK[:, a1 - a0 :]))
        return float(np.sum(TK))

    def swept(k_lo, k_hi) -> list:
        return [one_chunk(k0, a0) for k0 in range(k_lo, k_hi) for a0 in chunks]

    if tail is None:
        return swept(0, n0)
    head = swept(0, min(_CUT_HEAD, n0))
    limit = _TAIL_CUT * math.fsum(head)
    with np.errstate(over="ignore"):
        spread = float(np.ptp(U) ** p)
    stop = next((r for r in range(_CUT_HEAD, n0) if tail[r] * spread <= limit), n0)
    return head + swept(_CUT_HEAD, stop)


def _offset_tails(grid: Grid, kernel_expo: float) -> list[float]:
    """Bounds of the run sweep's partials of offsets k0 >= r, for r = 0..n0,
    at values of spread 1 (see ``_plane_sweep``).

    Every pair of cells of run 0 and run k >= 1 lies at least delta_k apart,
    the distance between the bounding boxes of the two runs' centres, so
    the kernel of offset k sums to at most W_0 W_k / delta_k^e (W_j the
    weight of run j; infinite where the boxes touch), and its partial to at
    most that times n0 - k, the number of runs x0 it pairs with run x0 + k.
    Offset 0 has no bound.
    """
    n0 = grid.planes
    centres = grid.centers.reshape(n0, -1, grid.d)
    lo, hi = centres.min(axis=1), centres.max(axis=1)
    gap = np.maximum(0.0, np.maximum(lo[1:] - hi[0], lo[0] - hi[1:]))
    delta = np.sqrt(np.sum(gap * gap, axis=1))  # run offsets 1..n0-1
    W = grid.weights.reshape(n0, -1).sum(axis=1)
    rows = np.arange(n0 - 1, 0, -1)  # x0 < n0 - k
    with np.errstate(divide="ignore"):
        bound = rows * W[0] * W[1:] / delta**kernel_expo
    return [math.inf] + np.cumsum(bound[::-1])[::-1].tolist() + [0.0]


def _offset_powers(n: int, h: np.ndarray, kernel_expo: float) -> np.ndarray:
    """(sum_a (k_a h_a)^2)^{-e/2} at the cell offsets k of an n^d box of
    cell sides h, e = ``kernel_expo``; 0 at k = 0."""
    d = len(h)
    sq = sum(((np.arange(n) * ha) ** 2).reshape((n,) + (1,) * (d - 1 - a))
             for a, ha in enumerate(h))
    with np.errstate(divide="ignore"):
        table = sq ** (-kernel_expo / 2)
    table.flat[0] = 0.0
    return table


def _median(vals: np.ndarray):
    """``np.median`` of finite values, bit for bit, without the ``numpy.ma``
    import that ``np.median`` makes on its first call."""
    lo, hi = (vals.size - 1) // 2, vals.size // 2
    return np.partition(vals, (lo, hi))[lo:hi + 1].mean()


def _fft_pair_sum(table: np.ndarray, m: np.ndarray | None, p: int):
    """The pair sum over i != j of |U_i - U_j|^p K(i - j) M_i M_j on an n^d
    box, K the offset powers ``table``, M the mask ``m`` (None: every
    cell), as a function of U on the box (0 off the mask).

    With the binomial expansion it is sum_j C(p, j) (-1)^j <M U^{p-j},
    K * (M U^j)>, ``numpy.fft`` convolutions on the box zero-padded to 2n
    per axis.  Terms j and p - j are equal, and K * M is made here, so
    p = 2 takes one convolution per call and p = 4 two.  Returns the sum
    and its positive terms, whose excess over the sum measures the
    cancellation.
    """
    n, d = table.shape[0], table.ndim
    size = (2 * n,) * d
    axes = tuple(range(d))
    offset = np.minimum(np.arange(size[0]), size[0] - np.arange(size[0]))
    inside = offset < n
    K = table[np.ix_(*(np.where(inside, offset, 0),) * d)]
    for a in axes:
        K[(slice(None),) * a + (~inside,)] = 0.0
    K_hat = np.fft.rfftn(K, axes=axes)
    box = (slice(n),) * d

    def conv(b):
        return np.fft.irfftn(np.fft.rfftn(b, s=size, axes=axes) * K_hat, s=size, axes=axes)[box]

    M = np.ones(table.shape) if m is None else m
    KM = conv(M)

    def pair_sum(U):
        powers = [M, U] + [U**j for j in range(2, p + 1)]
        terms = [math.comb(p, j) * (-1) ** j * (1 if 2 * j == p else 2)
                 * float(np.sum(powers[p - j] * (KM if j == 0 else conv(powers[j]))))
                 for j in range(p // 2 + 1)]
        return math.fsum(terms), math.fsum(t for t in terms if t > 0)

    return pair_sum


def _pair_sums(grid: Grid, p, kernel_expo, kept=None):
    """The partial sums of |u_i - u_j|^p |x_i - x_j|^{-e} w_i w_j, e =
    ``kernel_expo``, over the cell pairs i < j, as a function of the
    values.  With ``kept``, the values are those of the cells of ``grid``
    at the flat indices ``kept``: they are scattered into the grid, and
    the other cells are masked out.

    A box in d >= 2 (``grid.lattice``, which ``union_grid`` sets) has one
    table of offset powers, made here.  At an even integer p <= 8 its sum
    is one partial, from ``_fft_pair_sum`` on the values less their median
    (which leaves every difference as it is); if the positive terms exceed
    that sum more than ``_FFT_CANCELLATION`` times, or at any other p, it
    is the sweep's.

    The sweep takes the runs as the planes of ``_plane_sweep``, one partial
    per run offset and row chunk.  ``run_grid`` made run x0 the image of
    run 0 under the x0-th power of one similarity x -> lam x + t, so cell a
    of run x0 and cell b of run x0 + k0 lie lam^{x0} times as far apart as
    cell a of run 0 and cell b of run k0, and each weighs lam^{x0 d} times
    as much: their kernel x weights is that of run 0 and run k0 times
    lam^{x0 (2d - e)}.  Where lam = 1 or 2d = e that factor is 1, and there
    is one table per offset and row chunk; a grid of shrinking runs at
    2d != e (which no command builds: the probe runs at d = 1, sp = 1) is
    summed as one run.  A box gathers each table from its offset powers;
    any other grid raises the distances of run 0 and run k0 to the power.
    The tables are kept for the next values while all of them fit in one
    chunk (n0 n^2 <= ``_PAIR_CHUNK`` for n0 runs of n cells) and built per
    use above that.

    Runs that shrink (lam != 1: the blocks of ``slab_graded_grid``) get the
    bounds of ``_offset_tails``, made here, and the sweep drops the run
    offsets whose bounded sum is below ``_TAIL_CUT`` (2^-53) of the sum of
    the first ``_CUT_HEAD`` (8); at sp = 1 in d = 1 the kernel of blocks k
    apart decays like 2^-k, and the level-8 probe grid sums 67 to 72 of its
    389 offsets.  Runs with lam = 1 (boxes, telescope columns) decay only
    polynomially and are swept whole.
    """
    n0 = grid.planes
    lam = grid.sides[grid.ncells // n0, 0] / grid.sides[0, 0] if n0 > 1 else 1.0
    if lam != 1 and 2 * grid.d != kernel_expo:
        n0, lam = 1, 1.0
    n = grid.ncells // n0
    w = grid.weights.reshape(n0, n)

    def scattered(values):
        U = np.zeros(grid.ncells)
        U[kept] = values
        return U.reshape(n0, n)

    m = None if kept is None else scattered(1.0)
    tail = None if lam == 1 else _offset_tails(grid, kernel_expo)
    tables, keep = {}, n0 * n * n <= _PAIR_CHUNK
    fft = None
    if not grid.lattice:
        axes = grid.centers.reshape(n0, n, grid.d).transpose(0, 2, 1).copy()  # (run, axis, cell)

        def build(k0, a0, a1, c0):
            x, y = axes[0, :, a0:a1, None], axes[k0, :, None, c0:]
            K = y[0] - x[0]
            if grid.d == 1:
                np.abs(K, out=K)
            else:  # the squared distance
                K *= K
                for ya, xa in zip(y[1:], x[1:]):
                    K += (ya - xa) ** 2
            with np.errstate(divide="ignore"):
                K **= -kernel_expo / min(grid.d, 2)
            K *= w[0, a0:a1, None] * w[k0, None, c0:]
            if k0 == 0:
                np.fill_diagonal(K, 0.0)  # a cell with itself; T is 0 there
            return K
    else:
        offsets = _offset_powers(n0, grid.sides[0], kernel_expo)
        planar = offsets.reshape(n0, n)  # (axis-0 offset, offset within a plane)
        index = np.indices((n0,) * (grid.d - 1)).reshape(grid.d - 1, -1)
        strides = n0 ** np.arange(grid.d - 2, -1, -1)
        w2 = w[0, 0] * w[0, 0]

        def plane_offsets(a0, a1, c0):  # flat offsets within a plane
            return sum(np.abs(i[a0:a1, None] - i[None, c0:]) * s for i, s in zip(index, strides))

        whole = plane_offsets(0, n, 0) if n * n <= _PAIR_CHUNK else None

        def build(k0, a0, a1, c0):
            flat = plane_offsets(a0, a1, c0) if whole is None else whole[a0:a1, c0:]
            return planar[k0][flat] * w2

        if p.is_integer() and p % 2 == 0 and p <= 8:
            fft = _fft_pair_sum(offsets, None if m is None else m.reshape(offsets.shape), int(p))

    def kernel(k0, a0, a1, c0):
        K = tables.get((k0, a0))
        if K is None:
            K = build(k0, a0, a1, c0)
            if keep:
                tables[k0, a0] = K
        return K

    def sums(vals):
        if fft is not None:
            centred = vals - _median(vals)
            U = centred if kept is None else scattered(centred)
            total, positive = fft(U.reshape(offsets.shape))
            if positive <= _FFT_CANCELLATION * total:
                return [0.5 * w2 * total]
        U = vals.reshape(n0, n) if kept is None else scattered(vals)
        return _plane_sweep(U, p, kernel, m, tail)

    return sums


def check_member(u, d: int) -> None:
    """The members' dimension rule: raise ``ParameterError`` unless a test
    function ``u`` is a function on R^d (a bare callable states none)."""
    if isinstance(u, TestFunction) and u.d != d:
        raise ParameterError(f"the member is a function on R^{u.d}, not on R^{d}")


def check_support(support: Box, domain: geo.Domain, support_box: Box) -> None:
    """The members' support rule: raise ``ParameterError`` unless the box
    ``support`` (a member's support, or a family's hull) lies in the box of
    the grid the member is summed on, ``grid_box(domain, support_box)``,
    and in the closed domain by the domain's own test (``holds``): outside
    the exterior ball's closed ball, on or above the epigraph's graph.  A
    polygon states no such test and keeps the truncation-box rule alone."""
    box = grid_box(domain, support_box)
    where = f"support {list(support.lo)} .. {list(support.hi)}"
    if not (all(a <= b for a, b in zip(box.lo, support.lo))
            and all(a <= b for a, b in zip(support.hi, box.hi))):
        raise ParameterError(f"{where} leaves the grid's box {list(box.lo)} .. {list(box.hi)}")
    if not domain.holds(support):
        raise ParameterError(f"{where} leaves the {domain.kind} domain")


def check_cell_side(fp: FracParams, log2_side: float) -> None:
    """The seminorm's range rule: raise ``ParameterError`` unless the two
    powers of a cell side h = 2^log2_side that the seminorm of ``fp``
    forms, the kernel across one cell h^-(d + sp) and the weights of two
    cells h^2d, are normal doubles: |log2 h| max(d + sp, 2d) <= 1022."""
    power = float(max(fp.d + fp.sp, 2 * fp.d))
    if not abs(log2_side) * power <= 1022:
        raise ParameterError(f"cells of side 2**{log2_side:.6g} leave the seminorm's range:"
                             f" it needs |log2 h| <= {1022 / power:g}")


class SeminormTables:
    """The grid-only work of the Gagliardo seminorm on one grid for one
    (p, s), done once: the pair sum over the grid's runs (over its box's
    runs for a masked grid), with the kernel tables it keeps (on a box in
    d >= 2, its offset powers and, at an even p, their padded FFT and
    their convolution with the mask), the probe points of the slope
    estimate and the diagonal patch's p-th root per cell.  A grid with a
    cell side that breaks ``check_cell_side`` is rejected.

    ``evaluate`` is the one place that turns a member into values and
    slopes on the grid, with two calls of the member; ``seminorm`` and
    ``norm`` take their terms from that one evaluation.  A sweep over
    members builds the tables once; ``gagliardo_seminorm`` builds them for
    its one member.
    """

    def __init__(self, grid: Grid, fp: FracParams):
        if grid.d != fp.d:
            raise ParameterError(f"grid dimension {grid.d} != parameter dimension {fp.d}")
        p, sp = float(fp.p), float(fp.sp)
        if p - sp <= 0:
            raise ParameterError("diagonal patch requires sp < p")
        check_cell_side(fp, max(math.log2(grid.sides.min()), math.log2(grid.sides.max()),
                                key=abs))
        self.grid, self.p = grid, p
        box, kept = grid.within or (grid, None)
        self._pair_sums = _pair_sums(box, p, fp.d + sp, kept)
        # the points a quarter side above and below each centre, axis by
        # axis, and the distance across each pair
        d, quarter = grid.d, grid.sides * 0.25
        probes = np.repeat(grid.centers[None], 2 * d, axis=0)
        for a in range(d):
            probes[2 * a, :, a] += quarter[:, a]
            probes[2 * a + 1, :, a] -= quarter[:, a]
        self._probes = probes.reshape(-1, d)
        self._spans = 2 * quarter.T
        # the diagonal patch: L^p times the same-cell integral of
        # |x-y|^{p-d-sp} in closed form over the ball of the cell's volume
        # w, w d w_d r^{p-sp} / (p - sp) with r = (w / w_d)^{1/d}; exact for
        # d = 1 and first-order accurate above.  Kept as its p-th root c,
        # so a term (L c)^p leaves the double range only where the true
        # term does
        wd = geo.unit_ball_volume(d)
        r_eq = (grid.weights / wd) ** (1.0 / d)
        self._patch = (grid.weights * (d * wd / (p - sp))) ** (1.0 / p) * r_eq ** ((p - sp) / p)

    def evaluate(self, u) -> tuple[np.ndarray, np.ndarray]:
        """u at the cell centres and the per-cell slope estimate |grad u|
        (central differences), from one call of u on the centres and one
        on the probe points of every axis."""
        vals = _evaluate(u, self.grid.centers)
        pm = _evaluate(u, self._probes).reshape(self.grid.d, 2, self.grid.ncells)
        grads = np.zeros(self.grid.ncells)
        for (plus, minus), span in zip(pm, self._spans):
            ga = (plus - minus) / span
            grads += ga * ga
        return vals, np.sqrt(grads)

    def seminorm(self, vals: np.ndarray, lips: np.ndarray) -> float:
        """[u]_{W^{s,p}} from ``evaluate``'s values and slopes."""
        off_diag = 2.0 * kahan_sum(np.asarray(self._pair_sums(vals)))
        diag = kahan_sum((lips * self._patch) ** self.p)
        return (off_diag + diag) ** (1.0 / self.p)

    def norm(self, vals: np.ndarray, lips: np.ndarray) -> float:
        """The full norm (||u||_p^p + [u]_{W^{s,p}}^p)^{1/p} from
        ``evaluate``'s values and slopes; ||u||_p^p is the midpoint sum of
        |u|^p over the cells."""
        p = self.p
        lp = kahan_sum(np.abs(vals) ** p * self.grid.weights) ** (1.0 / p)
        semi = self.seminorm(vals, lips)
        return (lp**p + semi**p) ** (1.0 / p)


def gagliardo_seminorm(u, domain: geo.Domain | None, fp: FracParams, grid) -> float:
    """[u]_{W^{s,p}} over (domain x domain), truncated to the grid's region.

    For compactly supported u on unbounded domains the grid's box is the
    far-field truncation; widen it to capture more of the tail.
    """
    tables = SeminormTables(as_grid(grid, domain), fp)
    return tables.seminorm(*tables.evaluate(u))
