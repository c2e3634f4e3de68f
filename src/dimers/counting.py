"""Exact tiling counts.

Every exact count goes through one path:

* count_region: broken-profile DP over the cells in lexicographic order,
  along the narrowest order of the axes.  The profile spans one
  cross-section of the most significant axis plus a partial row, and its
  cost grows as 2^width, so every axis order is tried (on a box, one per
  sequence of sides) and the one with the smallest width is swept; on a
  tie the last axis stays most significant.
  The width guard applies to that sweep.  Works in any dimension and for
  general regions; a prism, one cross-section over a run of layers along
  the sweep, is swept over half of its layers and the halves are paired
  at the middle layer by reflection.
* count_cylinder: count_region on make_cylinder(disk, height).  When it
  sweeps floor by floor, its profile is the plug of the transfer
  automaton, so it computes (T^N)[empty, empty] without building T.

The automaton's floor fills, core.matchings (the search enumeration
runs too) with the plug in covered, have a second job, the twist transfer:

* twist_polynomial: tilings per value of the twist's crossing sum, by a
  count DP over slices perpendicular to x or y that carries {crossing
  sum: ways} per plug.  A slice's fills are core.matchings with the
  cells that go on to the next slice open, and its weight is the twist
  module's crossing kernel over a partner of the dominoes touching it.
  explore.twist_census calibrates it.

Two objects stand beside these as checks:

* build_automaton: the plug automaton's explicit transfer matrix, for
  inspection and as an independent route to cylinder counts in the tests.
* count_rect_2d_formula: the classical trigonometric double product for
  2D rectangles, as a floating-point cross-check of the DP.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import permutations
from typing import NamedTuple

from .core import Cell, Region, make_cylinder, make_region, matched, matchings
from .errors import InvalidRegion, WidthGuardExceeded

WIDTH_GUARD = 24  # 2^24 profile states worst case; refuse rather than thrash


def _dp_plan(region: Region) -> tuple[list[list[int]], int]:
    """Forward-neighbor offsets per cell in profile order, and the sweep's
    most significant axis.

    Cells are swept in lexicographic order of their coordinates, read in
    some order of the axes.  Every +axis neighbor then lies strictly
    ahead; its distance in the sweep is the profile offset, and the
    largest offset is the profile width.  Every order of the axes is
    tried (at most 24 for d <= 4) and the narrowest sweep is kept; on a
    tie the earlier order in permutations(d-1, ..., 0) wins, so the
    default sweep, last axis most significant, is kept unless another
    order is strictly narrower.  On a region with dims, a full box, two
    orders that read the same sides give the same plan, so only the
    first order of each side sequence is swept.
    """
    cells = region.cells
    forward = region.forward
    best = None
    seen = set()
    for axes in permutations(reversed(range(region.d))):
        sides = tuple(region.dims[a] for a in axes) if region.dims else axes
        if sides in seen:
            continue
        seen.add(sides)
        keys = [[cell[a] for a in axes] for cell in cells]
        order = sorted(range(region.n_cells), key=keys.__getitem__)
        pos = [0] * region.n_cells
        for p, ci in enumerate(order):
            pos[ci] = p
        width = max((pos[nb] - p for p, ci in enumerate(order) for nb in forward[ci]),
                    default=0)
        if best is None or width < best[0]:
            best = (width, order, pos, axes[0])
    _, order, pos, axis = best
    return [sorted(pos[nb] - p for nb in forward[ci]) for p, ci in enumerate(order)], axis


def profile_width(region: Region) -> int:
    """Largest forward offset the profile DP must remember, in the
    narrowest sweep, the one count_region runs."""
    plan, _ = _dp_plan(region)
    return max((offs[-1] for offs in plan if offs), default=0)


def _sweep(plan: list[list[int]], states: dict[int, int]) -> dict[int, int]:
    """The profile DP over the cells of `plan`: {mask: ways} before them
    to {mask: ways} after them, where bit j of a mask marks the j-th cell
    ahead as already covered."""
    for offsets in plan:
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, ways in states.items():
            if mask & 1:
                key = mask >> 1
                nxt[key] = get(key, 0) + ways
            else:
                for off in offsets:
                    bit = 1 << off
                    if not mask & bit:
                        key = (mask | bit) >> 1
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
    plan, axis = _dp_plan(region)
    width = max((offs[-1] for offs in plan if offs), default=0)
    if width > WIDTH_GUARD:
        raise WidthGuardExceeded(
            f"profile width {width} exceeds guard {WIDTH_GUARD}"
        )
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
    plugs = [0]
    index = {0: 0}
    rows = []
    for plug in plugs:  # breadth first: plugs grows while it is walked
        partner = [n if plug >> i & 1 else -1 for i in range(n)]
        transitions = Counter(matchings(disk.forward, partner, (1 << n) - 1))
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
# the twist transfer


def _slices(region: Region) -> dict[int, dict[Cell, int]]:
    """Slices perpendicular to x or y, whichever has the smaller largest
    slice (x on a tie): coordinate -> {cell without it: cell index}."""
    best = None
    for axis in (0, 1):
        slices: dict[int, dict[Cell, int]] = {}
        for i, cell in enumerate(region.cells):
            slices.setdefault(cell[axis], {})[cell[:axis] + cell[axis + 1 :]] = i
        largest = max(map(len, slices.values()), default=0)
        if best is None or largest < best[0]:
            best = (largest, slices)
    return best[1]


def twist_polynomial(region: Region) -> dict[int, int]:
    """Tilings per value of the twist's crossing sum along z, sum_T q^W(T)
    with W = twist._crossings(region, T's partner, 2), exactly.

    Only an x-domino and a y-domino on the same (x, y) column cross, so W
    is a sum over columns.  Sweeping slices perpendicular to x (or y), a
    slice holds whole columns, and its fill, with the plug in from the
    slice before and the plug out to the slice after, fixes every domino
    touching them.  The slice's weight is the kernel over a partner that
    holds those dominoes, -1 elsewhere; the columns of the neighbouring
    slices get dominoes of one axis only from them and add 0.  The count
    DP then carries {W: ways} per plug.
    The plug masks live on the union of the slices' projections, and the
    slice's cell count is guarded like the profile width.
    """
    from .twist import _crossings_through

    if region.d != 3:
        raise InvalidRegion("pretwist is defined for d=3 only")
    slices = _slices(region)
    largest = max(map(len, slices.values()), default=0)
    if largest > WIDTH_GUARD:
        raise WidthGuardExceeded(f"slice has {largest} cells, guard is {WIDTH_GUARD}")
    disk = make_region({p for cells in slices.values() for p in cells}, d=2)
    n = disk.n_cells
    everywhere = (1 << n) - 1
    # in-slice dominoes along the disk's first axis, sorted; z-dominoes cross nothing
    crossing = [(p, row[0]) for p, row in enumerate(disk.neighbor_table) if row[0] >= 0]
    positions = {
        s: {disk.index[p]: i for p, i in cells.items()} for s, cells in slices.items()
    }

    # Plug dominoes all run along the sweep, so they cross only in-slice
    # ones, and the slice's weight is the kernel over the plug in and the
    # crossing in-slice dominoes plus the kernel over those and the plug
    # out.  Moving a slice one step along the sweep flips every orientation
    # sign and each crossing is a product of two, so both halves depend only
    # on their plug and in-slice dominoes, and the transitions only on the
    # slice's shape: the cells it lacks and the cells that may pierce.
    halves: dict[tuple, int] = {}
    memo: dict[tuple[int, int, int], Counter] = {}

    def half(side: int, mask: int, across: tuple, plug_pairs: dict, here: dict) -> int:
        key = (side, mask, across)
        value = halves.get(key)
        if value is None:
            pairs = [*(plug_pairs[p] for p in _bits(mask)), *((here[p], here[q]) for p, q in across)]
            partner = matched([-1] * region.n_cells, pairs)
            value = halves[key] = _crossings_through(region, partner, here.values())
        return value

    vector: dict[int, dict[int, int]] = {0: {0: 1}}
    here: dict[int, int] = {}
    for s in range(min(slices, default=0), max(slices, default=-1) + 1):
        before, here, after = here, positions.get(s, {}), positions.get(s + 1, {})
        entering = {p: (before[p], i) for p, i in here.items() if p in before}
        leaving = {p: (i, after[p]) for p, i in here.items() if p in after}
        absent = everywhere & ~sum(1 << p for p in here)
        open_cells = sum(1 << p for p in leaving)
        nxt: dict[int, dict[int, int]] = {}
        for plug, weights in vector.items():
            key = (plug, absent, open_cells)
            steps = memo.get(key)
            if steps is None:
                steps = memo[key] = Counter()
                partner = [n if (plug | absent) >> p & 1 else -1 for p in range(n)]
                for up in matchings(disk.forward, partner, open_cells):
                    across = tuple([(p, q) for p, q in crossing if partner[p] == q])
                    w = half(0, plug, across, entering, here) + half(1, up, across, leaving, here)
                    steps[up, w] += 1
            for (up, w), ways in steps.items():
                target = nxt.setdefault(up, {})
                for value, count in weights.items():
                    target[value + w] = target.get(value + w, 0) + count * ways
        vector = nxt
        if not vector:
            return {}
    return dict(sorted(vector.get(0, {}).items()))


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]
