"""Exact tiling counts.

Every exact count goes through one path:

* count_region: broken-profile DP over the cells in lexicographic order,
  along the narrowest order of the axes.  The profile spans one
  cross-section of the most significant axis plus a partial row, and its
  cost grows as 2^width, so every axis order is tried (on a box, one per
  sequence of sides) and the one with the smallest width is swept; on a
  tie the last axis stays most significant.
  The width guard applies to that sweep.  Each dict pass moves the
  profile over a block of BLOCK consecutive cells, through a table of
  the block's fills per pattern of its covered cells, which
  regions.matchings lists once per distinct block.  Works in any
  dimension and for general regions; a prism, one cross-section over a
  run of layers along the sweep, is swept over half of its layers and
  the halves are paired at the middle layer by reflection.
* count_cylinder: count_region on make_cylinder(disk, height).  When it
  sweeps floor by floor, its profile is the plug of the transfer
  automaton, so it computes (T^N)[empty, empty] without building T.
* twist_polynomial: tilings per value of the twist's crossing sum, by
  the same profile DP swept with a projection axis fastest (on a box,
  count_region's sweep), so that each line along it is swept in one
  piece and the twist module's line walk runs inside the sweep: a state
  carries the walk's running mark sums of its line and {crossing sum:
  ways}.  explore.twist_census turns its crossing sums into twists.

Two objects stand beside these as checks:

* build_automaton: the plug automaton's explicit transfer matrix, for
  inspection and as an independent route to cylinder counts in the tests.
  Its floor fills are regions.matchings', the cell above floor cell i
  past the end of the disk's table, at n + i, and tried first.
* count_rect_2d_formula: the classical trigonometric double product for
  2D rectangles, as a floating-point cross-check of the DP.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .regions import Region, make_cylinder, matchings
from .errors import InvalidRegion, WidthGuardExceeded

WIDTH_GUARD = 24  # 2^24 profile states worst case; refuse rather than thrash
BLOCK = 4  # cells per dict pass of the profile DP


def _narrowest(region: Region, orders) -> tuple[int, list[int], list[int], tuple[int, ...]]:
    """The narrowest of the sweeps along the given orders of the axes:
    its width, the cell indices in sweep order, each cell's position in
    it, and the order.

    Cells are swept in lexicographic order of their coordinates, read in
    the order of the axes.  Every +axis neighbor then lies strictly
    ahead; its distance in the sweep is the profile offset, and the
    largest offset is the profile width.  On a tie the earlier order
    wins.  On a region with dims, a full box, two orders that read the
    same sides give the same sweep, so only the first order of each side
    sequence is swept.
    """
    forward = region.forward
    best = None
    seen = set()
    for axes in orders:
        sides = tuple(region.dims[a] for a in axes) if region.dims else axes
        if sides in seen:
            continue
        seen.add(sides)
        keys = [[cell[a] for a in axes] for cell in region.cells]
        order = sorted(range(region.n_cells), key=keys.__getitem__)
        pos = [0] * region.n_cells
        for p, ci in enumerate(order):
            pos[ci] = p
        width = max((pos[nb] - p for p, ci in enumerate(order) for nb in forward[ci]),
                    default=0)
        if best is None or width < best[0]:
            best = (width, order, pos, axes)
    return best


def _guard(width: int) -> None:
    if width > WIDTH_GUARD:
        raise WidthGuardExceeded(f"profile width {width} exceeds guard {WIDTH_GUARD}")


def _dp_plan(region: Region) -> tuple[int, list[list[int]], int]:
    """The profile width, the forward-neighbor offsets per cell in profile
    order, and the most significant axis of the narrowest sweep.

    Every order of the axes is tried (at most 24 for d <= 4) in
    permutations(d-1, ..., 0), so the default sweep, last axis most
    significant, is kept unless another order is strictly narrower.
    """
    width, order, pos, axes = _narrowest(region, permutations(reversed(range(region.d))))
    forward = region.forward
    return width, [sorted(pos[nb] - p for nb in forward[ci]) for p, ci in enumerate(order)], axes[0]


def profile_width(region: Region) -> int:
    """Largest forward offset the profile DP must remember, in the
    narrowest sweep, the one count_region runs."""
    return _dp_plan(region)[0]


@lru_cache(maxsize=1024)
def _block_table(block: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The fills of a block of consecutive cells, given their forward
    offsets: entry low, for the block's cells already covered as the bits
    of low, is the tuple of masks past the block that the fills of its
    free cells cover, one per fill (a mask repeats when two fills cover
    the same cells).  regions.matchings fills the block, its targets past
    the block past the end of its table; whether one was covered before
    the block is the run-time check in _sweep.
    """
    g = len(block)
    forward = [tuple(i + off for off in offs) for i, offs in enumerate(block)]
    past = [-1] * max((off for offs in block for off in offs), default=0)
    return tuple(
        tuple(matchings(forward, [0 if low >> i & 1 else -1 for i in range(g)] + past))
        for low in range(1 << g)
    )


def _sweep(plan: list[list[int]], states: dict[int, int]) -> dict[int, int]:
    """The profile DP over the cells of `plan`: {mask: ways} before them
    to {mask: ways} after them, where bit j of a mask marks the j-th cell
    ahead as already covered.

    Each dict pass moves over a block of BLOCK consecutive cells (the
    last block may be shorter): a state's low bits, the block's covered
    cells, pick the block's fills from _block_table, and a fill whose
    cells past the block are free moves its ways to the mask of the rest
    with them covered.  Between blocks the states are those of a sweep
    that moves one cell per pass.
    """
    for start in range(0, len(plan), BLOCK):
        block = tuple(map(tuple, plan[start : start + BLOCK]))
        table, g = _block_table(block), len(block)
        low = (1 << g) - 1
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, ways in states.items():
            rest = mask >> g
            for add in table[mask & low]:
                if not rest & add:
                    key = rest | add
                    nxt[key] = get(key, 0) + ways
        states = nxt
        if not states:
            break
    return states


def count_region(region: Region) -> int:
    """Number of domino tilings of the region, exactly.

    A prism, n layers along the sweep's most significant axis with one
    cross-section, is swept over its first k = n // 2 layers only.  The
    states f_k(P) then count the tilings of those layers whose dominoes
    into layer k cover the cells P, and reflecting the axis makes the
    tilings of layers k..n-1 with P covered number f_{n-k}(P).  So the
    count is the sum of f_k(P) f_{n-k}(P): f_k squared for even n, and
    for odd n f_k times the states one layer further.
    """
    width, plan, axis = _dp_plan(region)
    _guard(width)
    layers = {cell[axis] for cell in region.cells}
    size = len({cell[:axis] + cell[axis + 1 :] for cell in region.cells})
    if layers and len(layers) * size == region.n_cells and max(layers) - min(layers) < len(layers):
        k = len(layers) // 2
        half = _sweep(plan[: k * size], {0: 1})
        other = _sweep(plan[k * size : (k + 1) * size], half) if len(layers) % 2 else half
        return sum(ways * other.get(mask, 0) for mask, ways in half.items())
    return _sweep(plan, {0: 1}).get(0, 0)


def count_rect_2d_formula(m: int, n: int) -> float:
    """Double product over cos^2 terms for the m x n rectangle."""
    if m < 1 or n < 1:
        raise InvalidRegion("rectangle sides must be >= 1")
    value = 1.0
    for j in range(1, m // 2 + (m % 2) + 1):
        cj = 4 * math.cos(math.pi * j / (m + 1)) ** 2
        for k in range(1, n // 2 + (n % 2) + 1):
            ck = 4 * math.cos(math.pi * k / (n + 1)) ** 2
            value *= cj + ck
    return value


# ---------------------------------------------------------------------------
# plug automaton


class PlugAutomaton(NamedTuple):
    """Transfer automaton of a disk.

    plugs[i] is a bitmask over the disk's sorted cells marking the cells
    pierced by vertical dominoes at a floor interface; matrix[i][j] counts
    the in-floor matchings of the disk minus both plugs.  plugs[0] is the
    empty plug.
    """

    disk: Region
    plugs: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]


def build_automaton(disk: Region) -> PlugAutomaton:
    """Plugs reachable from the empty plug, with transition multiplicities."""
    if disk.n_cells > WIDTH_GUARD:
        raise WidthGuardExceeded(
            f"disk has {disk.n_cells} cells, guard is {WIDTH_GUARD}"
        )
    n = disk.n_cells
    forward = [(n + i, *row) for i, row in enumerate(disk.forward)]
    plugs = [0]
    index = {0: 0}
    rows = []
    for plug in plugs:  # breadth first: plugs grows while it is walked
        partner = [0 if plug >> i & 1 else -1 for i in range(n)] + [-1] * n
        transitions = Counter(matchings(forward, partner))
        for q in transitions:
            if q not in index:
                index[q] = len(plugs)
                plugs.append(q)
        rows.append(transitions)
    matrix = []
    for transitions in rows:
        row = [0] * len(plugs)
        for q, weight in transitions.items():
            row[index[q]] = weight
        matrix.append(tuple(row))
    return PlugAutomaton(disk=disk, plugs=tuple(plugs), matrix=tuple(matrix))


def count_cylinder(disk: Region, height: int) -> int:
    """Tilings of disk x [0, height) by the profile DP; its width guard
    applies to the sweep count_region chooses."""
    return count_region(make_cylinder(disk, height))


# ---------------------------------------------------------------------------
# the twist law


def twist_polynomial(region: Region) -> dict[int, int]:
    """Tilings per value of the twist's crossing sum along z, sum_T q^W(T)
    with W = twist._crossings(region, T's partner, 2), exactly.

    The profile DP of count_region, swept with an axis k fastest, so that
    each line along k is swept in one piece, and W is the line walk's sum
    over those lines.  A box (a region with dims) is swept in
    count_region's own order, k its fastest axis, since every tiling of a
    box has one crossing sum along every axis (axis agreement); any other
    region with k = z, x or y most significant (the narrower, x on a tie).
    A profile digit is 0 for a free cell and axis + 1 for a cell that a
    domino from behind covers, which fixes the mark the cell carries as
    its high end; a cell whose domino reaches ahead carries the mark of
    its low end.  Beside the profile each state keeps the walk's running
    mark sums A and B of its line, reset where a line starts, and carries
    {W: ways}.  The width guard applies to this sweep.
    """
    from .twist import _line_table

    if region.d != 3:
        raise InvalidRegion("pretwist is defined for d=3 only")
    orders = permutations(reversed(range(3))) if region.dims else [(0, 1, 2), (1, 0, 2)]
    width, order, pos, axes = _narrowest(region, orders)
    _guard(width)
    _, line_of, marks = _line_table(region, axes[-1])
    table = region.neighbor_table
    states: dict[tuple[int, int, int], dict[int, int]] = {(0, 0, 0): {0: 1}}
    line = None
    for p, ci in enumerate(order):
        row, mark = table[ci], marks[ci]
        high = {a + 1: mark[row[2 * a + 1]] for a in range(3) if row[2 * a + 1] >= 0}
        low = [(3 << 2 * (pos[j] - p), (a + 1) << 2 * (pos[j] - p), mark[j])
               for a, j in enumerate(row[::2]) if j >= 0]
        fresh, line = line_of[ci] != line, line_of[ci]
        nxt: dict[tuple[int, int, int], dict[int, int]] = {}
        for (profile, below_a, below_b), law in states.items():
            if fresh:
                below_a = below_b = 0
            digit = profile & 3
            if digit:
                steps = [(profile, high[digit])]
            else:
                steps = [(profile | fill, m) for taken, fill, m in low if not profile & taken]
            for after, (ca, cb) in steps:
                shift = cb * below_a - ca * below_b
                key = (after >> 2, below_a + ca, below_b + cb)
                target = nxt.setdefault(key, {})
                for w, ways in law.items():
                    target[w + shift] = target.get(w + shift, 0) + ways
        states = nxt
    # every profile is empty now; the last line was never reset, so its
    # mark sums A and B need not be 0
    return dict(sorted(sum(map(Counter, states.values()), Counter()).items()))
