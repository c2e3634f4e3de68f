"""Exact tiling counts.

Every exact count goes through one path:

* count_region: broken-profile DP over the cells in (last axis, ..., first
  axis) order.  The profile spans one cross-section plus a partial row, so
  its width is bounded by the disk size.  Works in any dimension and for
  general regions.
* count_cylinder: the profile DP on disk x [0, height).  Sweeping floor by
  floor, its profile is the plug of the transfer automaton, so it computes
  (T^N)[empty, empty] without building T.

Two objects stand beside it as checks:

* build_automaton: the plug automaton's explicit transfer matrix, for
  inspection and as an independent route to cylinder counts in the tests.
* count_rect_2d_formula: the classical trigonometric double product for
  2D rectangles, as a floating-point cross-check of the DP.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Region, make_region
from .errors import InvalidRegion, WidthGuardExceeded

WIDTH_GUARD = 24  # 2^24 profile states worst case; refuse rather than thrash


def _dp_plan(region: Region) -> list[list[int]]:
    """Forward-neighbor offsets per cell in profile order.

    Cells are processed sorted by reversed coordinates (last axis most
    significant).  Every +axis neighbor then lies strictly ahead; its
    distance in the order is the profile offset.
    """
    order = sorted(range(region.n_cells), key=lambda i: region.cells[i][::-1])
    pos = {ci: p for p, ci in enumerate(order)}
    table = region.neighbor_table
    plan = []
    for p, ci in enumerate(order):
        offsets = []
        for axis in range(region.d):
            nb = table[ci][2 * axis]
            if nb >= 0:
                offsets.append(pos[nb] - p)
        plan.append(sorted(offsets))
    return plan


def profile_width(region: Region) -> int:
    """Largest forward offset the profile DP must remember."""
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
    """Tilings of disk x [0, height) by the profile DP."""
    if height < 1:
        raise InvalidRegion(f"cylinder height must be >= 1, got {height}")
    if disk.n_cells > width_guard:
        raise WidthGuardExceeded(
            f"disk has {disk.n_cells} cells, guard is {width_guard}"
        )
    cells = [c + (z,) for z in range(height) for c in disk.cells]
    return count_region(make_region(cells, d=disk.d + 1), width_guard=width_guard)
