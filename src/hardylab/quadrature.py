"""Deterministic quadrature: L^p norms, averages, and the Gagliardo seminorm.

Everything is a midpoint rule on axis-aligned cells.  Uniform tensor grids
come from a ``GridSpec``; unions of boxes (dyadic layers, geometrically
graded meshes toward a boundary) and masked boxes (annuli, epigraph clips)
produce the same ``Grid`` value, so every functional below works on any of
them.  A single box, whole or masked, also carries its ``Lattice``; any
other grid is ``planes`` runs of cells, each the image of the first under
a power of one similarity (a telescope layer pair's columns of cubes, the
dyadic blocks of the 1-D graded mesh), so one plane sweep sums the
seminorm's cell pairs by index or run offset.

Determinism contract: single sums are correctly rounded (``math.fsum``),
so they do not depend on the summation order.  The double sum over cell
pairs is split into fixed pieces whose partial sums are combined in a fixed
order: one partial per plane offset and fixed-size chunk of a plane's
rows, in offset order, where the planes are the axis-0 planes of a lattice
grid and the runs of any other grid.  The worker thread count is an
argument of ``gagliardo_seminorm``; the threads only compute partials, so
results are bit-identical for any thread count.

The Gagliardo seminorm

    [u]_{W^{s,p}}^p = int int |u(x)-u(y)|^p / |x-y|^{d+sp} dx dy

is singular on the diagonal.  Distinct cell pairs use plain midpoints; the
same-cell contribution uses a per-cell Lipschitz estimate L and integrates
L^p |x-y|^{p-d-sp} in the radial variable over the equivalent-volume ball,
which keeps the diagonal mass instead of dropping it (dropping it biases
the seminorm low exactly in the critical regime).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

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
    "Constant",
    "uniform_grid",
    "masked_grid",
    "union_grid",
    "domain_grid",
    "as_grid",
    "integrate",
    "lp_norm",
    "average",
    "gagliardo_seminorm",
    "SeminormTables",
    "kahan_sum",
]


# ---------------------------------------------------------------------------
# fractional parameters


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if x != int(x):
            raise ParameterError(
                f"exponent {x!r} must be given exactly (int, Fraction or 'num/den' string)"
            )
        return Fraction(int(x))
    raise ParameterError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
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
    def criticality(self) -> str:
        """One of sp_eq_1, sp_eq_d, subcritical (sp = 1 takes precedence)."""
        if self.sp == 1:
            return "sp_eq_1"
        if self.sp == self.d:
            return "sp_eq_d"
        return "subcritical"

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


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor midpoint grid: ``resolution`` cells per axis on a box."""

    resolution: int
    support_box: Box

    def __post_init__(self):
        if self.resolution < 8 or not _is_power_of_two(self.resolution):
            raise ParameterError("resolution must be a power of two >= 8")

    def refined(self, factor: int = 2) -> "GridSpec":
        return GridSpec(self.resolution * factor, self.support_box)


@dataclass(frozen=True)
class Lattice:
    """Cell counts per axis of a uniform box mesh and the flat (C-order)
    indices of the cells a grid keeps; ``kept`` is None when it keeps all."""

    counts: tuple[int, ...]
    kept: np.ndarray | None = None


@dataclass(frozen=True)
class Grid:
    """Concrete quadrature mesh: midpoint nodes with per-cell sides/weights.

    Node order is the construction order and is part of the value; all
    summation contracts reference it.  ``lattice`` is set when the cells
    are (a subset of) one uniform box mesh, in mesh order.  Otherwise they
    are ``planes`` runs of equally many cells, and run j is the image of
    run 0 under the j-th power of one similarity x -> lam x + t, cell by
    cell: centres mapped, sides times lam^j.  lam is 1 when each run is
    the first one moved by a multiple of one step.
    """

    centers: np.ndarray  # (M, d)
    sides: np.ndarray  # (M, d)
    weights: np.ndarray  # (M,)
    lattice: Lattice | None = None
    planes: int = 1

    def __post_init__(self):
        if len(self.centers) == 0:
            raise ParameterError("grid has no cells")
        if self.planes < 1 or self.ncells % self.planes:
            raise ParameterError(f"{self.ncells} cells do not split into {self.planes} runs")

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
    boxes.  A single box records its ``Lattice``.
    """
    if not boxes:
        raise ParameterError("need at least one box")
    n = cells_per_axis
    lo = np.array([b.lo for b in boxes], dtype=float)  # (B, d)
    h = (np.array([b.hi for b in boxes], dtype=float) - lo) / n
    ticks = lo[..., None] + h[..., None] * (np.arange(n) + 0.5)  # (B, d, n)
    B, d = lo.shape
    centers = np.empty((B,) + (n,) * d + (d,))
    for a in range(d):
        centers[..., a] = ticks[:, a].reshape((B,) + (1,) * a + (n,) + (1,) * (d - a - 1))
    sides = np.repeat(h, n**d, axis=0)
    lattice = Lattice((n,) * d) if B == 1 else None
    return Grid(centers.reshape(-1, d), sides, np.prod(sides, axis=-1), lattice)


def uniform_grid(spec: GridSpec) -> Grid:
    return union_grid([spec.support_box], spec.resolution)


def masked_grid(spec: GridSpec, keep: Callable[[np.ndarray], np.ndarray]) -> Grid:
    """Uniform grid restricted to cells whose centers satisfy ``keep``."""
    g = uniform_grid(spec)
    mask = np.asarray(keep(g.centers), dtype=bool)
    if not np.any(mask):
        raise ParameterError("mask removed every cell of the grid")
    kept = replace(g.lattice, kept=np.flatnonzero(mask))
    return Grid(g.centers[mask], g.sides[mask], g.weights[mask], kept)


def domain_grid(domain: geo.Domain, spec: GridSpec) -> Grid:
    """Grid for integration over (domain intersect support box).

    Box-like domains clip the support box exactly; curved or graph
    boundaries keep the cells whose centers lie inside the domain.
    """
    if isinstance(domain, geo.BoxShaped):
        clipped = spec.support_box.intersect(domain.box)
        if clipped is None:
            raise ParameterError("support box does not meet the domain")
        return uniform_grid(GridSpec(spec.resolution, clipped))
    return masked_grid(spec, domain.contains)


def as_grid(grid, domain: geo.Domain | None = None) -> Grid:
    if isinstance(grid, Grid):
        return grid
    if isinstance(grid, GridSpec):
        return domain_grid(domain, grid) if domain is not None else uniform_grid(grid)
    raise ParameterError(f"expected GridSpec or Grid, got {type(grid).__name__}")


# ---------------------------------------------------------------------------
# summation helpers


def kahan_sum(values: np.ndarray) -> float:
    """Correctly rounded sum (``math.fsum``); independent of the order."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


#: element budget of one chunk of the plane sweep; fixed so partial sums
#: are independent of the thread count
_LATTICE_CHUNK = 1 << 17


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

    def scaled_by(self, c: float) -> "TestFunction":
        return _Scaled(self, c)

    def dilated(self, lam: float) -> "TestFunction":
        """x -> u(x / lam) supported on the lam-dilated box."""
        return _Dilated(self, lam)


@dataclass(frozen=True)
class _Scaled(TestFunction):
    base: TestFunction
    factor: float

    @property
    def support(self) -> Box:  # type: ignore[override]
        return self.base.support

    def __call__(self, pts):
        return self.factor * self.base(pts)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    def d(self) -> int:
        return 1 if self.transverse is None else self.transverse.d + 1

    @property
    def support(self) -> Box:  # type: ignore[override]
        lo_d = 2.0 ** (1.0 - self.t0 - 3.0 * self.depth)
        hi_d = 2.0 ** (1.0 - self.t0)
        if self.transverse is None:
            return Box((lo_d,), (hi_d,))
        return Box(self.transverse.lo + (lo_d,), self.transverse.hi + (hi_d,))

    def axis_profile(self, xd: np.ndarray) -> np.ndarray:
        xd = np.asarray(xd, dtype=float)
        vals = np.zeros_like(xd)
        pos = xd > 0
        t = np.empty_like(xd)
        t[pos] = np.log2(2.0 / xd[pos])
        t[~pos] = np.inf
        D = self.depth
        up = (t > self.t0) & (t < self.t0 + D)
        flat = (t >= self.t0 + D) & (t <= self.t0 + 2 * D)
        down = (t > self.t0 + 2 * D) & (t < self.t0 + 3 * D)
        vals[up] = (t[up] - self.t0) / D
        vals[flat] = 1.0
        vals[down] = (self.t0 + 3 * D - t[down]) / D
        return vals

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Constant(TestFunction):
    """Constant value on its support box, truncated outside."""

    value: float
    support: Box

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.where(self.support.contains(pts), self.value, 0.0)


# ---------------------------------------------------------------------------
# integrals


def _evaluate(f: Callable[[np.ndarray], np.ndarray], grid: Grid) -> np.ndarray:
    vals = np.asarray(f(grid.centers), dtype=float)
    if vals.shape != (grid.ncells,):
        raise EvaluationError(
            f"integrand returned shape {vals.shape}, expected ({grid.ncells},)"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = grid.centers[np.argmax(bad)]
        raise EvaluationError(f"integrand is not finite at node {tuple(node)}", node=node)
    return vals


def integrate(f, grid, domain: geo.Domain | None = None) -> float:
    """Midpoint-rule integral of f over the grid, correctly rounded sum.

    ``f`` is any vectorized callable on (M, d) arrays; ``grid`` may be a
    GridSpec (optionally clipped to ``domain``) or a prebuilt Grid.
    """
    g = as_grid(grid, domain)
    vals = _evaluate(f, g)
    return kahan_sum(vals * g.weights)


def lp_norm(u, domain: geo.Domain | None, p, grid) -> float:
    """(integral of |u|^p over the domain)^(1/p)."""
    p = float(p)
    if p < 1:
        raise ParameterError("p must be >= 1")
    g = as_grid(grid, domain)
    vals = np.abs(_evaluate(u, g))
    return kahan_sum(vals**p * g.weights) ** (1.0 / p)


def _region_grid(region, resolution_or_cells) -> Grid:
    if isinstance(region, Grid):
        return region
    if isinstance(region, geo.Annulus):
        spec = GridSpec(resolution_or_cells, region.bounding_box())
        return masked_grid(spec, region.contains)
    if isinstance(region, Box):
        region = [region]
    if isinstance(region, (list, tuple)):
        return union_grid(list(region), resolution_or_cells)
    raise ParameterError(f"unsupported region type {type(region).__name__}")


def average(u, region, cells_per_axis: int = 16) -> float:
    """Mean value of u over a box, union of boxes, annulus, or prebuilt grid."""
    g = _region_grid(region, cells_per_axis)
    total = g.total_weight
    if total <= 0:
        raise ParameterError("region has zero measure")
    vals = _evaluate(u, g)
    return kahan_sum(vals * g.weights) / total


# ---------------------------------------------------------------------------
# Gagliardo seminorm


def _map_in_order(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on ``threads`` worker threads if
    there is more than one."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))
    return [fn(item) for item in items]


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


def _plane_sweep(U, p, kernel, weight, threads, m=None, scale=None):
    """Pair sums of the cells of n0 planes of n_rest cells, by plane offset.

    ``U`` holds the values, shape (n0, n_rest).  Two distinct cells are
    k0 >= 0 planes apart; for each k0 and each chunk of rows a of the plane,

        T[a, b] = sum over x0 of scale(x0) |U(x0, a) - U(x0 + k0, b)|^p m(x0, a) m(x0 + k0, b)

    (a factor left as None is 1) is contracted with ``kernel(k0, a0, a1,
    c0)``, the kernel between the rows a0:a1 of a plane and the columns c0:
    of the plane k0 further on, and scaled by the number ``weight``.  At
    k0 = 0 only the pairs b > a count (the strict upper triangle): a
    chunk's columns start at its first row, and its leading square, which
    is symmetric with a zero diagonal, counts half.  One partial per (k0,
    row chunk), in that order.
    """
    n0, n_rest = U.shape
    rows = max(1, _LATTICE_CHUNK // n_rest)

    def one_chunk(item) -> float:
        k0, a0 = item
        a1 = min(a0 + rows, n_rest)
        c0 = a0 if k0 == 0 else 0
        T = np.zeros((a1 - a0, n_rest - c0))
        step = max(1, _LATTICE_CHUNK // T.size)
        for x0 in range(0, n0 - k0, step):
            x1 = min(x0 + step, n0 - k0)
            diff = U[x0:x1, a0:a1, None] - U[x0 + k0 : x1 + k0, None, c0:]
            _abs_pow(diff, p)
            if m is not None:
                diff *= m[x0:x1, a0:a1, None]
                diff *= m[x0 + k0 : x1 + k0, None, c0:]
            if scale is not None:
                diff *= scale[x0:x1, None, None]
            T += diff.sum(axis=0)
        with np.errstate(invalid="ignore"):
            TK = T * kernel(k0, a0, a1, c0)
        if k0 == 0:  # the leading square holds each pair twice
            return weight * (0.5 * float(np.sum(TK[:, : a1 - a0])) + float(np.sum(TK[:, a1 - a0 :])))
        return weight * float(np.sum(TK))

    items = [(k0, a0) for k0 in range(n0) for a0 in range(0, n_rest, rows)]
    return _map_in_order(one_chunk, items, threads)


def _shifted_pair_sums(grid: Grid, p, kernel_expo):
    """The partial sums of |u_i - u_j|^p |x_i - x_j|^{-e} w_i w_j, e =
    ``kernel_expo``, over the cell pairs i < j, as a function of the values
    and the thread count, by run offset.

    The runs are the planes of ``_plane_sweep``.  Run x0 is the image of
    run 0 under the x0-th power of one similarity x -> lam x + t (see
    ``Grid``), so cell a of run x0 and cell b of run x0 + k0 lie lam^{x0}
    times as far apart as cell a of run 0 and cell b of run k0, and each
    weighs lam^{x0 d} times as much: their kernel x weights is that of run
    0 and run k0, one table per offset, times lam^{x0 (2d - e)}, which
    scales the rows of run x0 (no scale when lam = 1 or 2d = e).
    """
    n0 = grid.planes
    n = grid.ncells // n0
    axes = grid.centers.reshape(n0, n, grid.d).transpose(0, 2, 1).copy()  # (run, axis, cell)
    w = grid.weights.reshape(n0, n)
    lam = grid.sides[n, 0] / grid.sides[0, 0] if n0 > 1 else 1.0
    grading = 2 * grid.d - kernel_expo
    scale = None if lam == 1 or grading == 0 else lam ** (np.arange(n0) * grading)

    def kernel(k0, a0, a1, c0):
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

    def sums(vals, threads):
        return _plane_sweep(vals.reshape(n0, n), p, kernel, 1.0, threads, scale=scale)

    return sums


def _lattice_pair_sums(grid: Grid, p, kernel_expo):
    """The pair sums of ``_shifted_pair_sums`` on a lattice grid, by offsets.

    The box is read as n0 planes of n_rest cells (a 1-D box as one plane),
    with the values and the mask scattered into it, and swept by
    ``_plane_sweep``.  The kernel depends only on k0 and on |a - b| per
    axis and so is gathered from the n_rest powers of that offset, by an
    index that depends only on the row chunk.  The cell weight w is the
    same everywhere, so w^2 is a common factor.
    """
    lat = grid.lattice
    counts = lat.counts if grid.d > 1 else (1,) + lat.counts
    h = grid.sides[0] if grid.d > 1 else np.concatenate(([0.0], grid.sides[0]))
    n0, rest = counts[0], counts[1:]
    n_rest = math.prod(rest)
    m = None
    if lat.kept is not None:
        m = np.zeros(n0 * n_rest)
        m[lat.kept] = 1.0
        m = m.reshape(n0, n_rest)

    # kernel[k0, j]: plane offset k0 and in-plane offset with flat index j
    offs = np.indices(rest).reshape(len(rest), n_rest)
    r2 = sum((hk * o) ** 2 for hk, o in zip(h[1:], offs))
    with np.errstate(divide="ignore", over="ignore"):
        kernel = ((h[0] * np.arange(n0))[:, None] ** 2 + r2) ** (-0.5 * kernel_expo)
    kernel[0, 0] = 0.0  # a cell with itself; T is 0 there
    # the flat index of an in-plane offset is the sum of these per axis
    steps = [o * math.prod(rest[k + 1 :]) for k, o in enumerate(offs)]
    # each row chunk's index, over all columns, serves every k0 and every
    # member; it is kept while the indices of all chunks together fit in
    # eight chunks, so a long plane (a long 1-D box) does not hold n_rest^2
    # indices but builds each per use.  Two threads may build one twice;
    # the two are equal.
    index = {}
    keep = n_rest * n_rest <= 8 * _LATTICE_CHUNK

    def gathered(k0, a0, a1, c0):
        gather = index.get((a0, a1))
        if gather is None:
            gather = np.abs(steps[0][a0:a1, None] - steps[0][None, :])
            for st in steps[1:]:
                gather += np.abs(st[a0:a1, None] - st[None, :])
            if keep:
                index[a0, a1] = gather
        return kernel[k0][gather[:, c0:]]

    w2 = float(grid.weights[0]) ** 2

    def sums(vals, threads):
        if lat.kept is None:
            U = vals.reshape(n0, n_rest)
        else:
            U = np.zeros(n0 * n_rest)
            U[lat.kept] = vals
            U = U.reshape(n0, n_rest)
        return _plane_sweep(U, p, gathered, w2, threads, m)

    return sums


class SeminormTables:
    """The grid-only work of the Gagliardo seminorm on one grid for one
    (p, s), done once: the pair sum's kernel tables, the probe points of
    the slope estimate and the diagonal patch's radial factor.

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
        pair_sums = _shifted_pair_sums if grid.lattice is None else _lattice_pair_sums
        self.grid, self.p = grid, p
        self._pair_sums = pair_sums(grid, p, fp.d + sp)
        # the points a quarter side above and below each centre, axis by
        # axis, and the distance across each pair
        d, quarter = grid.d, grid.sides * 0.25
        probes = np.repeat(grid.centers[None], 2 * d, axis=0)
        for a in range(d):
            probes[2 * a, :, a] += quarter[:, a]
            probes[2 * a + 1, :, a] -= quarter[:, a]
        self._probes = probes.reshape(-1, d)
        self._spans = 2 * quarter.T
        # the diagonal patch: the same-cell integral of |x-y|^{p-d-sp} in
        # closed form over the ball of the cell's volume, vol * d w_d
        # r^{p-sp} / (p - sp) with r = (vol / w_d)^{1/d}; exact for d = 1
        # and first-order accurate above
        wd = geo.unit_ball_volume(d)
        r_eq = (grid.weights / wd) ** (1.0 / d)
        self._radial = d * wd * r_eq ** (p - sp) / (p - sp)

    def evaluate(self, u) -> tuple[np.ndarray, np.ndarray]:
        """u at the cell centres and the per-cell slope estimate |grad u|
        (central differences), from one call of u on the centres and one
        on the probe points of every axis."""
        vals = _evaluate(u, self.grid)
        pm = np.asarray(u(self._probes), dtype=float).reshape(self.grid.d, 2, self.grid.ncells)
        grads = np.zeros(self.grid.ncells)
        for (plus, minus), span in zip(pm, self._spans):
            ga = (plus - minus) / span
            grads += ga * ga
        return vals, np.sqrt(grads)

    def seminorm(self, vals: np.ndarray, lips: np.ndarray, threads: int = 1) -> float:
        """[u]_{W^{s,p}} from ``evaluate``'s values and slopes.  The pair
        sum runs on ``threads`` worker threads; the value does not depend
        on their number."""
        if threads < 1:
            raise ParameterError("thread count must be >= 1")
        off_diag = 2.0 * kahan_sum(np.asarray(self._pair_sums(vals, threads)))
        # the same-cell mass L^p * int int |x-y|^{p-d-sp} over each cell
        diag = kahan_sum(lips**self.p * self.grid.weights * self._radial)
        return (off_diag + diag) ** (1.0 / self.p)

    def norm(self, vals: np.ndarray, lips: np.ndarray, threads: int = 1) -> float:
        """The full norm (||u||_p^p + [u]_{W^{s,p}}^p)^{1/p} from
        ``evaluate``'s values and slopes; the L^p term is ``lp_norm``'s."""
        p = self.p
        lp = kahan_sum(np.abs(vals) ** p * self.grid.weights) ** (1.0 / p)
        semi = self.seminorm(vals, lips, threads)
        return (lp**p + semi**p) ** (1.0 / p)


def gagliardo_seminorm(u, domain: geo.Domain | None, fp: FracParams, grid,
                       threads: int = 1) -> float:
    """[u]_{W^{s,p}} over (domain x domain), truncated to the grid's region.

    For compactly supported u on unbounded domains the grid's box is the
    far-field truncation; widen it to capture more of the tail.  The pair
    sum runs on ``threads`` worker threads; the value does not depend on
    their number.
    """
    tables = SeminormTables(as_grid(grid, domain), fp)
    return tables.seminorm(*tables.evaluate(u), threads)
