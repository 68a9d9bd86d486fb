"""Identities that hold for every input, kept as test helpers.

Each states a fact about the discretisation or a closed form that no
config can break, so the package does not carry it; the tests check the
implementation against it:

* ``maximizer_x0``: the ratio a/b where the two-term bound is tight;
* ``telescoping_coefficient_identity``: both sides of the telescoping
  coefficient identity, as floats, from ``lemmas.telescoping_coefficient_parts``;
* ``scaled_sobolev_ratio``: the scale-normalised oscillation/seminorm ratio,
  which does not depend on the dilation because the grid scales with it;
* ``Annulus``: the spherical shell that ratio is also stated on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hardylab import geometry as geo
from hardylab import lemmas
from hardylab import quadrature as quad
from hardylab.errors import ParameterError


def maximizer_x0(c, tau) -> float:
    """Ratio x0 = 1/(c^{1/(tau-1)} - 1) where the two-term bound is tight."""
    if c <= 1:
        raise ParameterError("c must exceed 1")
    if tau <= 1:
        raise ParameterError("tau must exceed 1")
    return 1.0 / (c ** (1.0 / (tau - 1.0)) - 1.0)


def telescoping_coefficient_identity(k: int, tau: float) -> tuple[float, float]:
    """Both sides of (1 - c^{-1/(tau-1)})^{1-tau} = 2^{tau-1} (-k)^{tau-1}.

    The bases agree as exact rationals, so the powered sides agree too.
    """
    base_from_c, _ = lemmas.telescoping_coefficient_parts(k)
    lhs = float(base_from_c) ** (1.0 - tau)
    rhs = 2.0 ** (tau - 1.0) * float(-k) ** (tau - 1.0)
    return lhs, rhs


@dataclass(frozen=True, eq=False, repr=False)
class Annulus:
    """Spherical shell inner < |x| <= outer."""

    inner: float
    outer: float
    d: int

    def __post_init__(self):
        if not 0 < self.inner < self.outer:
            raise ParameterError("need 0 < inner < outer")

    @property
    def measure(self) -> float:
        w = geo.unit_ball_volume(self.d)
        return w * (self.outer**self.d - self.inner**self.d)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=-1)
        return (r > self.inner) & (r <= self.outer)

    def bounding_box(self) -> geo.Box:
        return geo.Box((-self.outer,) * self.d, (self.outer,) * self.d)

    def scaled(self, factor: float) -> "Annulus":
        return Annulus(self.inner * factor, self.outer * factor, self.d)


def scaled_sobolev_ratio(
    u: quad.TestFunction,
    lam: float,
    fp: quad.FracParams,
    tau,
    resolution: int = 64,
    region=None,
) -> float:
    """LHS / RHS of the scale-normalized oscillation bound at dilation lam.

    ``u`` is a profile on a base region (default: its own support box);
    the dilated copy u(x/lam) is measured on the lam-scaled region:

        LHS = (mean |u_lam - mean u_lam|^tau)^{1/tau}
        RHS = (lam^{sp-d} [u_lam]^p)^{1/p}

    The grid scales with lam, so the ratio does not depend on lam.
    """
    if lam <= 0:
        raise ParameterError("lam must be positive")
    tau = float(tau)
    base = region if region is not None else u.support
    if isinstance(base, geo.Box):
        g = quad.union_grid([base.scaled(lam)], resolution)
    elif isinstance(base, Annulus):
        shell = base.scaled(lam)
        g = quad.masked_grid(quad.GridSpec(resolution, shell.bounding_box()), shell.contains)
    else:
        raise ParameterError("region must be a Box or an Annulus")
    tables = quad.SeminormTables(g, fp)
    vals, lips = tables.evaluate(u.dilated(lam))
    mean = quad.kahan_sum(vals * g.weights) / g.total_weight
    osc = quad.kahan_sum(np.abs(vals - mean) ** tau * g.weights) / g.total_weight
    lhs = osc ** (1.0 / tau)
    if lhs == 0.0 and np.allclose(vals, vals[0]):
        return 0.0  # constant profile: zero oscillation, zero ratio
    semi = tables.seminorm(vals, lips)
    p = float(fp.p)
    rhs = (lam ** (float(fp.sp) - fp.d) * semi**p) ** (1.0 / p)
    if rhs == 0.0:
        raise ParameterError("seminorm vanished for a non-constant profile")
    return lhs / rhs
