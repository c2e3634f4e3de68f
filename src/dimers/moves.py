"""Local moves on tilings: flips and trits.

A flip rotates two parallel dominoes inside a 2x2x1 window; a trit permutes
three pairwise-orthogonal dominoes inside a 2x2x2 window and carries a sign
(the twist steps by that sign).  Every move lives in one of the region's
windows, which `flip_windows` and `trit_windows` build once per region for
every reader (the sampler, slabs, ideals, the censuses and the encoding's
flip steps), and moves are listed in table order: window corner
lexicographic, then axes.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .core import Cell, Domino, Region, Tiling, matched, pair_dominoes
from .errors import MoveNotApplicable


class FlipMove(NamedTuple):
    """2x2 window in the (axes[0], axes[1]) plane at `corner`; the two
    parallel dominoes currently run along before_axis."""

    corner: Cell
    axes: tuple[int, int]
    before_axis: int

    @property
    def after_axis(self) -> int:
        a, b = self.axes
        return b if self.before_axis == a else a


class TritMove(NamedTuple):
    """2x2x2 window spanning `axes` at `corner`, holding one domino per
    axis; applying it swaps in the only other such configuration."""

    corner: Cell
    axes: tuple[int, int, int]
    removed: tuple[Domino, Domino, Domino]


@lru_cache(maxsize=16)
def flip_windows(region: Region) -> dict[tuple[int, tuple[int, int]], tuple[int, ...]]:
    """(corner index, (a, b)) -> cell indices (i00, i10, i01, i11) of
    each 2x2 window inside the region, i10 one step along +a from the
    corner and i01 one step along +b.  Ordered by corner, then axes."""
    table = region.neighbor_table
    out = {}
    for i, row in enumerate(table):
        for a, b in combinations(range(region.d), 2):
            i10, i01 = row[2 * a], row[2 * b]
            if i10 >= 0 and i01 >= 0 and table[i10][2 * b] >= 0:
                out[(i, (a, b))] = (i, i10, i01, table[i10][2 * b])
    return out


@lru_cache(maxsize=16)
def trit_windows(region: Region) -> dict[tuple[int, tuple[int, int, int]], tuple]:
    """(corner index, axes) -> (ids, swaps) for each 2x2x2 window inside
    the region, ordered like flip_windows.  ids are the eight cell
    indices, sorted.  swaps maps each matching of six of them with one
    domino per axis, as sorted index pairs, to the only other one."""
    table = region.neighbor_table
    out = {}
    for i in range(len(table)):
        for axes in combinations(range(region.d), 3):
            cube = {}
            for deltas in product((0, 1), repeat=3):
                j = i
                for axis, delta in zip(axes, deltas):
                    if delta and j >= 0:
                        j = table[j][2 * axis]
                cube[deltas] = j
            if min(cube.values()) >= 0:
                out[(i, axes)] = (tuple(sorted(cube.values())), _trit_swaps(cube))
    return out


# A 2x2x2 cube minus a cell `far` and its opposite cell is a hexagon: the
# cells far xor _HEXAGON[k], k = 0..5, go round it, one coordinate changing
# per step.  Its even edges and its odd edges are its two perfect matchings,
# and each has one domino per axis.  No other six cells of the cube have
# such a matching, so every one of them has exactly one partner.
_HEXAGON = ((1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 1))


def _trit_swaps(cube: dict[tuple[int, int, int], int]) -> dict[tuple, tuple]:
    swaps = {}
    for far in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)):
        ring = [cube[tuple(f ^ m for f, m in zip(far, mask))] for mask in _HEXAGON]
        edges = [tuple(sorted((ring[k], ring[(k + 1) % 6]))) for k in range(6)]
        first, second = tuple(sorted(edges[0::2])), tuple(sorted(edges[1::2]))
        swaps[first], swaps[second] = second, first
    return swaps


def _window(table: dict, region: Region, corner: Cell, axes):
    """The window of a window table at (corner, axes), or None when it
    leaves the region."""
    return table.get((region.index.get(corner), tuple(sorted(axes))))


def _parallel_side(partner, window) -> int | None:
    """0 or 1 when the window holds a parallel pair of dominoes along its
    first or second axis, None when it holds none."""
    i00, i10, i01, i11 = window
    if partner[i00] == i10 and partner[i01] == i11:
        return 0
    if partner[i00] == i01 and partner[i10] == i11:
        return 1
    return None


def _flipped(partner, window, side: int) -> tuple[int, ...]:
    """partner with the window's parallel pair, along axis `side`, rotated."""
    i00, i10, i01, i11 = window
    return matched(partner, ((i00, i01), (i10, i11)) if side == 0 else ((i00, i10), (i01, i11)))


def _held(partner, ids) -> tuple[tuple[int, int], ...]:
    """Index pairs of the dominoes inside a trit window, sorted like the
    keys of its swap map because the window's ids are sorted."""
    held = []
    for i in ids:
        j = partner[i]
        if i < j and j in ids:
            held.append((i, j))
    return tuple(held)


def flip_neighbors(region: Region, partner) -> list[tuple[int, ...]]:
    """Partner tuples one flip away, in list_flips order."""
    out = []
    for window in flip_windows(region).values():
        side = _parallel_side(partner, window)
        if side is not None:
            out.append(_flipped(partner, window, side))
    return out


def trit_neighbors(region: Region, partner) -> list[tuple]:
    """(partner after, removed pairs, added pairs) for every trit, in
    list_trits order."""
    out = []
    for ids, swaps in trit_windows(region).values():
        removed = _held(partner, ids)
        added = swaps.get(removed)
        if added is not None:
            out.append((matched(partner, added), removed, added))
    return out


def list_flips(tiling: Tiling) -> list[FlipMove]:
    """Every applicable flip, duplicate-free, in deterministic order."""
    cells = tiling.region.cells
    out = []
    for (corner, axes), window in flip_windows(tiling.region).items():
        side = _parallel_side(tiling.partner, window)
        if side is not None:
            out.append(FlipMove(cells[corner], axes, axes[side]))
    return out


def apply_flip(tiling: Tiling, move: FlipMove) -> Tiling:
    """Rotate the window's dominoes; involutive via the reverse move."""
    a, b = sorted(move.axes)
    window = _window(flip_windows(tiling.region), tiling.region, move.corner, (a, b))
    if window is None:
        raise MoveNotApplicable(f"flip window {move.corner} leaves the region")
    side = _parallel_side(tiling.partner, window)
    if side is None or (a, b)[side] != move.before_axis:
        raise MoveNotApplicable(f"no parallel pair along axis {move.before_axis}")
    return Tiling(tiling.region, _flipped(tiling.partner, window, side))


def _dominoes(region: Region, pairs) -> tuple[Domino, ...]:
    table = pair_dominoes(region)
    return tuple(sorted(table[pair] for pair in pairs))


def list_trits(tiling: Tiling) -> list[TritMove]:
    """Every 2x2x2 window holding three pairwise-orthogonal dominoes of the
    tiling.  Empty in 2D so generic pipelines run unchanged."""
    region = tiling.region
    out = []
    for (corner, axes), (ids, swaps) in trit_windows(region).items():
        held = _held(tiling.partner, ids)
        if held in swaps:
            out.append(TritMove(region.cells[corner], axes, _dominoes(region, held)))
    return out


def _trit_pairs(tiling: Tiling, move: TritMove):
    """Index pairs of the trit's three dominoes and of their replacement."""
    region = tiling.region
    window = _window(trit_windows(region), region, move.corner, move.axes)
    if window is None:
        raise MoveNotApplicable(f"trit window {move.corner} leaves the region")
    ids, swaps = window
    removed = _held(tiling.partner, ids)
    if removed not in swaps or _dominoes(region, removed) != move.removed:
        raise MoveNotApplicable("tiling does not hold the trit's three dominoes")
    return removed, swaps[removed]


def apply_trit(tiling: Tiling, move: TritMove) -> tuple[Tiling, int]:
    """Apply the trit and return (new tiling, sign).

    In 3D the sign is the calibrated twist step, +1 or -1, negated by the
    inverse move.  In dimension 4 and up the twist lives in Z/2, every
    trit flips it, and the sign is reported as +1.  The twist module is
    loaded here, on the first trit applied, so that listing moves and
    walking flips load none of it.
    """
    from .twist import trit_sign

    removed, added = _trit_pairs(tiling, move)
    after = Tiling(tiling.region, matched(tiling.partner, added))
    return after, trit_sign(tiling.region, tiling.partner, removed, added)

