"""Local moves on tilings: flips and trits.

A flip rotates two parallel dominoes inside a 2x2x1 window; a trit permutes
three pairwise-orthogonal dominoes inside a 2x2x2 window and carries a sign
(the twist steps by that sign).  Every move lives in one of the region's
windows, which `flip_windows` and `trit_windows` build once per region for
every reader (the sampler, slabs, ideals, the censuses and the encoding's
flip steps), and moves are listed in table order: window corner
lexicographic, then axes.

A trit window is keyed by its four white cells.  Each domino inside the
cube has one white cell, and a trit's three dominoes leave one white to be
matched outside the cube, so the partners of the four whites fix the trit:
every reader (`list_trits`, `trit_neighbors`, `apply_trit` and the
sampler) reads them with one `itemgetter` call and looks the tuple up in
the window's moves map.  The maps are built from the two matchings of
each hexagon in the cube, which `regions.matchings` finds once per
colour of the corner.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .core import Cell, Domino, Region, Tiling, make_box, matched, matchings, pair_dominoes
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
    """(corner index, axes) -> (held, moves) for each 2x2x2 window inside
    the region, ordered like flip_windows.  held reads the partners of the
    window's four white cells; moves maps each value held returns on a
    tiling that holds a trit there to (removed, added), the index pairs of
    the trit's three dominoes and of the only other matching of their six
    cells with one domino per axis, each sorted."""
    table = region.neighbor_table
    cells = region.cells
    out = {}
    for i in range(len(table)):
        for axes in combinations(range(region.d), 3):
            # cube[4*b0 + 2*b1 + b2] is the corner plus b along the axes;
            # cells are sorted, so this is also the order of their indices
            cube = [i]
            for axis in reversed(axes):
                cube += [table[j][2 * axis] for j in cube]
                if -1 in cube:
                    break
            else:
                whites, hexagons = _cube_trits(sum(cells[i]) % 2)
                held = itemgetter(*[cube[p] for p in whites])
                out[(i, axes)] = (held, _trit_moves(table, cube, hexagons))
    return out


@lru_cache(maxsize=2)
def _cube_trits(corner_parity: int):
    """The cube positions of a window's white cells, and for each of the
    four hexagons: the white left out of it, which a trit there matches
    outside the cube, and its two matchings as sorted position pairs,
    each with the position every white is matched to in it (None for the
    white left out).

    A position is the index of a cell of the 2x2x2 box.  The cube minus
    a position `far` and its opposite is a hexagon, whose two perfect
    matchings regions.matchings finds over the box's +axis table; each
    has one domino per axis, and no other six cells of the cube have
    such a matching."""
    whites = [p for p in range(8) if (bin(p).count("1") + corner_parity) % 2 == 0]
    cube = make_box((2, 2, 2))
    hexagons = []
    for far in range(4):
        partner = [-1] * 8
        partner[far] = partner[7 - far] = None  # covered, and no white's mate
        pairings = []
        for _ in matchings(cube.forward, partner):
            pairs = tuple((p, q) for p, q in enumerate(partner) if q is not None and p < q)
            pairings.append((pairs, tuple(partner[p] for p in whites)))
        lone = far if far in whites else 7 - far
        hexagons.append((whites.index(lone), lone, pairings))
    return whites, hexagons


def _trit_moves(table, cube: list[int], hexagons) -> dict[tuple[int, ...], tuple]:
    """The moves map of one window.  The key of a matching names each
    white's partner, and the white left out of the hexagon takes each of
    its neighbours outside the cube in turn: every domino in the cube has
    one white cell, so this key fixes the matching."""
    moves = {}
    for slot, lone, pairings in hexagons:
        outside = [j for j in table[cube[lone]] if j >= 0 and j not in cube]
        first, second = (tuple((cube[a], cube[b]) for a, b in m) for m, _ in pairings)
        for (_, mates), found in zip(pairings, ((first, second), (second, first))):
            key = [None if p is None else cube[p] for p in mates]
            for j in outside:
                key[slot] = j
                moves[tuple(key)] = found
    return moves


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
    for held, moves in trit_windows(region).values():
        found = moves.get(held(partner))
        if found is not None:
            out.append((matched(partner, found[1]), *found))
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
    for (corner, axes), (held, moves) in trit_windows(region).items():
        found = moves.get(held(tiling.partner))
        if found is not None:
            out.append(TritMove(region.cells[corner], axes, _dominoes(region, found[0])))
    return out


def _trit_pairs(tiling: Tiling, move: TritMove):
    """Index pairs of the trit's three dominoes and of their replacement."""
    region = tiling.region
    window = _window(trit_windows(region), region, move.corner, move.axes)
    if window is None:
        raise MoveNotApplicable(f"trit window {move.corner} leaves the region")
    held, moves = window
    found = moves.get(held(tiling.partner))
    if found is None or _dominoes(region, found[0]) != move.removed:
        raise MoveNotApplicable("tiling does not hold the trit's three dominoes")
    return found


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

