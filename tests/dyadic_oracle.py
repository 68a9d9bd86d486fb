"""Scalar reference for the slab's dyadic lattice, one cube at a time.

The package lists the cubes of a layer as integer corner arrays
(``geometry.dyadic_corners`` and ``geometry.dyadic_parent``); this module
states the same rule with Python integers, cube by cube, so the tests can
check the arrays against it:

* cube ``index`` of layer k of the slab (-n, n)^{d-1} x (0, 1) has its
  lower corner, in units of 2^k, at the transverse position of the index
  in lexicographic order (first axis slowest), shifted by -n 2^{-k}, and
  x_d index 1;
* the cube directly above it is the cube of layer k + 1 whose transverse
  corner is the child's halved and rounded down.
"""

from __future__ import annotations

from hardylab import geometry as geo


def corner(k: int, n: int, d: int, index: int) -> tuple[int, ...]:
    """Lower corner, in units of 2^k, of cube ``index`` of layer k."""
    per = n * 2 ** (1 - k)  # cubes per transverse axis
    offset = n * 2 ** (-k)
    ints = []
    for _ in range(d - 1):
        index, pos = divmod(index, per)
        ints.append(pos - offset)
    return tuple(reversed(ints)) + (1,)


def above(k: int, ints: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Layer and corner of the cube directly above the cube at ``ints`` of
    layer k."""
    return k + 1, tuple(i // 2 for i in ints[:-1]) + (1,)


def cube_box(k: int, ints: tuple[int, ...]) -> geo.Box:
    """The box of the cube of layer k at ``ints``: i 2^k is exact in floats."""
    s = 2.0**k
    return geo.Box(tuple(i * s for i in ints), tuple((i + 1) * s for i in ints))


def layer_boxes(layer: geo.DyadicLayer) -> list[geo.Box]:
    """The boxes of a layer's cubes, in index order."""
    return [cube_box(layer.k, corner(layer.k, layer.n, layer.d, i)) for i in range(layer.count)]
