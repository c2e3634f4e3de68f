"""Local moves on tilings: flips, trits, and difference cycles.

A flip rotates two parallel dominoes inside a 2x2x1 window; a trit permutes
three pairwise-orthogonal dominoes inside a 2x2x2 window and carries a sign
(the twist steps by that sign).  Every move lives in one of the
region's precomputed windows (`Region.flip_windows`, `Region.trit_windows`)
and moves are listed in table order: window corner lexicographic, then
axes.
"""
from __future__ import annotations

from typing import NamedTuple

from .core import Cell, Domino, Region, Tiling, matched
from .errors import MoveNotApplicable, RegionMismatch


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


def _window(table: dict, region: Region, corner: Cell, axes):
    """The window of a Region table at (corner, axes), or None when it
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
    for window in region.flip_windows.values():
        side = _parallel_side(partner, window)
        if side is not None:
            out.append(_flipped(partner, window, side))
    return out


def trit_neighbors(region: Region, partner) -> list[tuple]:
    """(partner after, removed pairs, added pairs) for every trit, in
    list_trits order."""
    out = []
    for ids, swaps in region.trit_windows.values():
        removed = _held(partner, ids)
        added = swaps.get(removed)
        if added is not None:
            out.append((matched(partner, added), removed, added))
    return out


def list_flips(tiling: Tiling) -> list[FlipMove]:
    """Every applicable flip, duplicate-free, in deterministic order."""
    cells = tiling.region.cells
    out = []
    for (corner, axes), window in tiling.region.flip_windows.items():
        side = _parallel_side(tiling.partner, window)
        if side is not None:
            out.append(FlipMove(cells[corner], axes, axes[side]))
    return out


def apply_flip(tiling: Tiling, move: FlipMove) -> Tiling:
    """Rotate the window's dominoes; involutive via the reverse move."""
    a, b = sorted(move.axes)
    window = _window(tiling.region.flip_windows, tiling.region, move.corner, (a, b))
    if window is None:
        raise MoveNotApplicable(f"flip window {move.corner} leaves the region")
    side = _parallel_side(tiling.partner, window)
    if side is None or (a, b)[side] != move.before_axis:
        raise MoveNotApplicable(f"no parallel pair along axis {move.before_axis}")
    return Tiling(tiling.region, _flipped(tiling.partner, window, side))


def _dominoes(region: Region, pairs) -> tuple[Domino, ...]:
    table = region.pair_dominoes
    return tuple(sorted(table[pair] for pair in pairs))


def list_trits(tiling: Tiling) -> list[TritMove]:
    """Every 2x2x2 window holding three pairwise-orthogonal dominoes of the
    tiling.  Empty in 2D so generic pipelines run unchanged."""
    region = tiling.region
    out = []
    for (corner, axes), (ids, swaps) in region.trit_windows.items():
        held = _held(tiling.partner, ids)
        if held in swaps:
            out.append(TritMove(region.cells[corner], axes, _dominoes(region, held)))
    return out


def _trit_pairs(tiling: Tiling, move: TritMove):
    """Index pairs of the trit's three dominoes and of their replacement."""
    region = tiling.region
    window = _window(region.trit_windows, region, move.corner, move.axes)
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


def difference_cycles(t0: Tiling, t1: Tiling) -> list[list[Cell]]:
    """Disjoint closed cycles covering the cells where the tilings differ.

    Each cycle alternates dominoes of t0 and t1; trivial 2-cycles (shared
    dominoes) are dropped.
    """
    if t0.region != t1.region:
        raise RegionMismatch("difference of tilings needs a common region")
    cells = t0.region.cells
    n = len(cells)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or t0.partner[start] == t1.partner[start]:
            continue
        cycle = []
        i = start
        take_t0 = True
        while not seen[i]:
            seen[i] = True
            cycle.append(cells[i])
            i = t0.partner[i] if take_t0 else t1.partner[i]
            take_t0 = not take_t0
        cycles.append(cycle)
    return cycles
