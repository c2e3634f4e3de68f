"""Exact tiling counts.

Every exact count goes through one path:

* count_region: broken-profile DP over the cells in lexicographic order,
  along the narrowest order of the axes.  The profile spans one
  cross-section of the most significant axis plus a partial row, and its
  cost grows as 2^width, so every axis order is tried and the one with the
  smallest width is swept; on a tie the last axis stays most significant.
  The width guard applies to that sweep.  Works in any dimension and for
  general regions.
* count_cylinder: the profile DP on disk x [0, height).  When it sweeps
  floor by floor, its profile is the plug of the transfer automaton, so it
  computes (T^N)[empty, empty] without building T.

Two objects stand beside it as checks:

* build_automaton: the plug automaton's explicit transfer matrix, for
  inspection and as an independent route to cylinder counts in the tests.
* count_rect_2d_formula: the classical trigonometric double product for
  2D rectangles, as a floating-point cross-check of the DP.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .core import Region, make_region
from .errors import InvalidRegion, WidthGuardExceeded

WIDTH_GUARD = 24  # 2^24 profile states worst case; refuse rather than thrash


def _dp_plan(region: Region) -> list[list[int]]:
    """Forward-neighbor offsets per cell in profile order.

    Cells are swept in lexicographic order of their coordinates, read in
    some order of the axes.  Every +axis neighbor then lies strictly
    ahead; its distance in the sweep is the profile offset, and the
    largest offset is the profile width.  Every order of the axes is
    tried (at most 24 for d <= 4) and the narrowest sweep is kept; on a
    tie the earlier order in permutations(d-1, ..., 0) wins, so the
    default sweep, last axis most significant, is kept unless another
    order is strictly narrower.
    """
    cells = region.cells
    table = region.neighbor_table
    forward = [
        [row[2 * axis] for axis in range(region.d) if row[2 * axis] >= 0]
        for row in table
    ]
    best = None
    for axes in permutations(reversed(range(region.d))):
        keys = [[cell[a] for a in axes] for cell in cells]
        order = sorted(range(region.n_cells), key=keys.__getitem__)
        pos = [0] * region.n_cells
        for p, ci in enumerate(order):
            pos[ci] = p
        width = max((pos[nb] - p for p, ci in enumerate(order) for nb in forward[ci]),
                    default=0)
        if best is None or width < best[0]:
            best = (width, order, pos)
    _, order, pos = best
    return [sorted(pos[nb] - p for nb in forward[ci]) for p, ci in enumerate(order)]


def profile_width(region: Region) -> int:
    """Largest forward offset the profile DP must remember, in the
    narrowest sweep, the one count_region runs."""
    plan = _dp_plan(region)
    return max((offs[-1] for offs in plan if offs), default=0)


def count_region(region: Region, *, width_guard: int = WIDTH_GUARD) -> int:
    """Number of domino tilings of the region, exactly."""
    plan = _dp_plan(region)
    width = max((offs[-1] for offs in plan if offs), default=0)
    if width > width_guard:
        raise WidthGuardExceeded(
            f"profile width {width} exceeds guard {width_guard}"
        )
    states = {0: 1}
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
            return 0
    return states.get(0, 0)


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


@dataclass(frozen=True)
class PlugAutomaton:
    """Transfer automaton of a disk.

    plugs[i] is a bitmask over the disk's sorted cells marking the cells
    pierced by vertical dominoes at a floor interface; matrix[i][j] counts
    the in-floor matchings of the disk minus both plugs.  plugs[0] is the
    empty plug.
    """

    disk: Region
    plugs: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def plug_cells(self, plug_id: int):
        mask = self.plugs[plug_id]
        return tuple(
            c for i, c in enumerate(self.disk.cells) if mask & (1 << i)
        )


def _floor_transitions(disk: Region, plug: int) -> dict[int, int]:
    """All (next plug -> weight) pairs reachable from `plug`.

    Sweeps the disk cells once; each free cell either matches a free
    forward neighbor in the floor or pierces the top interface, joining
    the next plug.
    """
    n = disk.n_cells
    table = disk.neighbor_table
    forward = [
        [table[i][2 * a] for a in range(disk.d) if table[i][2 * a] > i]
        for i in range(n)
    ]
    out: dict[int, int] = {}

    def sweep(i: int, covered: int, up: int) -> None:
        while i < n and covered & (1 << i):
            i += 1
        if i == n:
            out[up] = out.get(up, 0) + 1
            return
        bit = 1 << i
        sweep(i + 1, covered | bit, up | bit)  # pierce the top interface
        for j in forward[i]:
            jbit = 1 << j
            if not covered & jbit:
                sweep(i + 1, covered | bit | jbit, up)

    sweep(0, plug, 0)
    return out


def build_automaton(disk: Region, *, width_guard: int = WIDTH_GUARD) -> PlugAutomaton:
    """Plugs reachable from the empty plug, with transition multiplicities."""
    if disk.n_cells > width_guard:
        raise WidthGuardExceeded(
            f"disk has {disk.n_cells} cells, guard is {width_guard}"
        )
    plugs = [0]
    index = {0: 0}
    rows = []
    for plug in plugs:  # breadth first: plugs grows while it is walked
        transitions = _floor_transitions(disk, plug)
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


def count_cylinder(disk: Region, height: int, *, width_guard: int = WIDTH_GUARD) -> int:
    """Tilings of disk x [0, height) by the profile DP; its width guard
    applies to the sweep count_region chooses."""
    if height < 1:
        raise InvalidRegion(f"cylinder height must be >= 1, got {height}")
    cells = [c + (z,) for z in range(height) for c in disk.cells]
    return count_region(make_region(cells, d=disk.d + 1), width_guard=width_guard)
