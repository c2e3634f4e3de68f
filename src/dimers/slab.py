"""Slab (2x2x1 block) tilings and the triple twist.

Cells carry one of four colors determined by the parities of x+z and y+z,
so that every slab, whatever its normal, covers each color exactly once.
Keeping one pair of colors and collapsing the other two squeezes the
region along a diagonal; each slab's two surviving cells land on adjacent
cells of the squeezed region, turning the slab tiling into a domino
tiling whose twist is a slab-flip invariant.  Three independent color
pairs give the triple twist.

Slabs come from the region's window tables: the slab with normal n at a
cell covers its flip window in the other two axes, and a flip swaps two
stacked slabs filling a 2x2x2 (trit) window for two of another normal.
Both pairs cover the same eight cells, so a flip needs no re-validation;
it patches the sorted slab tuple, two slabs out and two in by bisection.
Validation looks each slab's flip window up in the same table.  Inflation
and pair twists read one table per region and color pair: each slab as
the index pair of its two survivors in the squeezed region.
"""
from __future__ import annotations

import json
from bisect import bisect_left, insort
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from .core import Cell, Region, Tiling, decoding, make_region, matched, read_records, write_records
from .errors import CapExceeded, DecodeError, InflationError, InvalidRegion, MoveNotApplicable
from .explore import components
from .moves import flip_windows, trit_windows
from .twist import _calibrated, _crossings

_COLOR_OF_PARITY = {(0, 0): "R", (1, 0): "Y", (0, 1): "G", (1, 1): "B"}

# color pair -> the two coordinates whose diagonal the deflation collapses
_PAIR_AXES = {
    frozenset(("R", "G")): (0, 2),
    frozenset(("Y", "B")): (0, 2),
    frozenset(("R", "B")): (0, 1),
    frozenset(("G", "Y")): (0, 1),
    frozenset(("R", "Y")): (1, 2),
    frozenset(("G", "B")): (1, 2),
}

TRIPLE_TWIST_PAIRS = (("R", "G"), ("R", "B"), ("R", "Y"))
# the complement of each, in the same order
_OTHER_PAIRS = (("Y", "B"), ("G", "Y"), ("G", "B"))


def four_color(cell: Cell) -> str:
    """Color of a cell; 2-periodic in every coordinate, (0,0,0) is red."""
    x, y, z = cell
    return _COLOR_OF_PARITY[((x + z) % 2, (y + z) % 2)]


class Slab(NamedTuple):
    """2x2x1 block named by its min corner and its thin (normal) axis."""

    corner: Cell
    normal: int


class SlabTiling(NamedTuple):
    region: Region
    slabs: tuple[Slab, ...]


def validate_slab_tiling(tiling: SlabTiling) -> str | None:
    """None when the slabs cover the region exactly once, else a report
    naming the first bad cell in the order corner, +b, +a, +a+b (a < b
    the axes of the slab's plane)."""
    region = tiling.region
    index, windows = region.index, flip_windows(region)
    covered: set[int] = set()
    for slab in tiling.slabs:
        plane = ((1, 2), (0, 2), (0, 1))[slab.normal]
        ids = windows.get((index.get(slab.corner), plane))
        if ids is None or not covered.isdisjoint(ids):
            a, b = plane
            for da, db in product((0, 1), repeat=2):
                cell = tuple(x + da * (k == a) + db * (k == b) for k, x in enumerate(slab.corner))
                if cell not in index:
                    return f"slab {slab} leaves the region at {cell}"
                if index[cell] in covered:
                    return f"cell {cell} covered twice"
        covered.update(ids)
    if len(covered) != region.n_cells:
        return f"{region.n_cells - len(covered)} cells uncovered"
    return None


def enumerate_slab_tilings(
    region: Region, cap: int | None = 1_000_000
) -> Iterator[SlabTiling]:
    """Every slab tiling exactly once, deterministic order.

    The first uncovered cell is always the corner of the next slab, so
    each position offers at most three candidates (one per normal).
    """
    if region.d != 3:
        raise InvalidRegion("slab tilings are defined for d=3")
    cells = region.cells
    n = len(cells)
    covered = [False] * n
    yielded = 0

    # the window in axes (a, b) is the slab of normal 3 - a - b; reversed,
    # each cell's candidates come in ascending normal
    candidates: list[list[tuple[Slab, tuple[int, ...]]]] = [[] for _ in cells]
    for (i, (a, b)), ids in reversed(flip_windows(region).items()):
        candidates[i].append((Slab(cells[i], 3 - a - b), ids))

    def rec(start: int, acc: list[Slab]) -> Iterator[SlabTiling]:
        nonlocal yielded
        i = start
        while i < n and covered[i]:
            i += 1
        if i == n:
            yielded += 1
            if cap is not None and yielded > cap:
                raise CapExceeded(f"more than {cap} slab tilings")
            yield SlabTiling(region, tuple(acc))
            return
        for slab, ids in candidates[i]:
            if any(covered[j] for j in ids):
                continue
            for j in ids:
                covered[j] = True
            acc.append(slab)
            yield from rec(i + 1, acc)
            acc.pop()
            for j in ids:
                covered[j] = False

    yield from rec(0, [])


def horizontal_slab_tiling(region: Region) -> SlabTiling:
    """All slabs flat (normal z), corners on the even sublattice."""
    slabs = [
        Slab(cell, 2)
        for cell in region.cells
        if cell[0] % 2 == 0 and cell[1] % 2 == 0
    ]
    tiling = SlabTiling(region, tuple(slabs))
    report = validate_slab_tiling(tiling)
    if report is not None:
        raise InvalidRegion(f"region has no horizontal slab tiling: {report}")
    return tiling


# ---------------------------------------------------------------------------
# inflation


@lru_cache(maxsize=64)
def _inflation(region: Region, pair: frozenset) -> tuple[Region, dict[Slab, tuple[int, int]], int]:
    """The squeezed region of the surviving color pair, each slab of the
    region as the sorted index pair of its two survivors there, and the
    reference slab tiling's crossing sum along z."""
    i, j = _PAIR_AXES[pair]
    cells = region.cells
    kept = [k for k, cell in enumerate(cells) if four_color(cell) in pair]
    mapped = [list(cells[k]) for k in kept]
    for c in mapped:
        c[i], c[j] = (c[i] + c[j]) // 2, (c[j] - c[i]) // 2
    lo = [min(c[a] for c in mapped) for a in range(3)]
    shifted = [tuple(x - m for x, m in zip(c, lo)) for c in mapped]
    if len(set(shifted)) != len(shifted):
        raise InflationError("deflation map is not injective on the survivors")
    derived = make_region(shifted)
    image = dict(zip(kept, map(derived.index.__getitem__, shifted)))
    table = {}
    for (corner, (a, b)), ids in flip_windows(region).items():
        slab = Slab(cells[corner], 3 - a - b)
        survivors = tuple(sorted(image[k] for k in ids if k in image))
        if len(survivors) != 2:
            raise InflationError(f"slab {slab} keeps {len(survivors)} cells of pair "
                                 f"{sorted(pair)}, expected 2")
        if survivors[1] not in derived.neighbor_table[survivors[0]]:
            p, q = (derived.cells[k] for k in survivors)
            raise InflationError(f"slab {slab} deflates to non-adjacent cells {p}, {q}")
        table[slab] = survivors
    try:
        reference = horizontal_slab_tiling(region)
    except InvalidRegion:
        # callers hold a valid tiling of the region, so it has a first one
        reference = next(enumerate_slab_tilings(region, cap=None))
    return derived, table, _crossings(derived, _slab_partner(derived, table, reference.slabs), 2)


def _slab_partner(derived: Region, table: dict, slabs: Iterable[Slab]) -> tuple[int, ...]:
    """The derived region's partner of the dominoes the slabs inflate to."""
    return matched([-1] * derived.n_cells, map(table.__getitem__, slabs))


def _validated(tiling: SlabTiling) -> SlabTiling:
    report = validate_slab_tiling(tiling)
    if report is not None:
        raise InflationError(report)
    return tiling


def _inflation_of(tiling: SlabTiling, pair: Iterable[str]):
    """The inflation table of a valid slab tiling's region for a pair."""
    pair_set = frozenset(pair)
    if pair_set not in _PAIR_AXES:
        raise InflationError(f"unknown color pair {sorted(pair_set)}")
    return _inflation(_validated(tiling).region, pair_set)


def inflate(tiling: SlabTiling, pair: Iterable[str] = ("R", "G")) -> Tiling:
    """Domino tiling of the squeezed region; one domino per slab."""
    derived, table, _ = _inflation_of(tiling, pair)
    return Tiling(derived, _slab_partner(derived, table, tiling.slabs))


def _twist_in(tiling: SlabTiling, derived: Region, table: dict, reference: int) -> int:
    """Twist of the valid tiling inflated by one pair's table."""
    crossings = _crossings(derived, _slab_partner(derived, table, tiling.slabs), 2)
    value = _calibrated(crossings - reference)
    if value.denominator != 1:
        raise InflationError(f"non-integral pair twist {value}")
    return int(value)


def pair_twist(tiling: SlabTiling, pair: Iterable[str] = ("R", "G")) -> int:
    """Twist of the inflated tiling, relative to the inflated reference
    slab tiling (horizontal where the region has one), which scores 0."""
    return _twist_in(tiling, *_inflation_of(tiling, pair))


def all_pair_twists(tiling: SlabTiling) -> dict[tuple[str, str], int]:
    """pair_twist of all six color pairs, validating the tiling once."""
    region = _validated(tiling).region
    return {
        pair: _twist_in(tiling, *_inflation(region, frozenset(pair)))
        for pair in TRIPLE_TWIST_PAIRS + _OTHER_PAIRS
    }


def triple_twist(tiling: SlabTiling) -> tuple[int, int, int]:
    """Pair twists of (R,G), (R,B), (R,Y).

    The six pair twists are not independent; each complementary pair
    twist is the negation of its partner, which is asserted here.  The
    relations were found by exhausting small boxes and are frozen as
    oracles.
    """
    values = all_pair_twists(tiling)
    for first, second in zip(TRIPLE_TWIST_PAIRS, _OTHER_PAIRS):
        if values[first] + values[second] != 0:
            raise InflationError(
                f"pair twists {first}={values[first]} and {second}="
                f"{values[second]} break the frozen relation"
            )
    return tuple(values[pair] for pair in TRIPLE_TWIST_PAIRS)


# ---------------------------------------------------------------------------
# slab flips


class SlabFlip(NamedTuple):
    """Swap the two `from_normal` slabs filling the 2x2x2 box at `corner`
    for the two `to_normal` slabs filling the same box."""

    corner: Cell
    from_normal: int
    to_normal: int


def _stacked_pair(corner: Cell, normal: int) -> tuple[Slab, Slab]:
    upper = corner[:normal] + (corner[normal] + 1,) + corner[normal + 1 :]
    return Slab(corner, normal), Slab(upper, normal)


def list_slab_flips(tiling: SlabTiling) -> list[SlabFlip]:
    present = set(tiling.slabs)  # a Slab hashes and compares as its tuple
    cells, table = tiling.region.cells, tiling.region.neighbor_table
    out = []
    for i, _ in trit_windows(tiling.region):
        for normal in range(3):
            if (cells[i], normal) in present and (cells[table[i][2 * normal]], normal) in present:
                out.extend(SlabFlip(cells[i], normal, to) for to in range(3) if to != normal)
    return out


def apply_slab_flip(tiling: SlabTiling, move: SlabFlip) -> SlabTiling:
    if move.to_normal not in range(3) or move.to_normal == move.from_normal:
        raise MoveNotApplicable(f"no flip from normal {move.from_normal} to {move.to_normal}")
    return SlabTiling(tiling.region, _patched_slabs(sorted(set(tiling.slabs)), move))


def _patched_slabs(slabs, move: SlabFlip) -> tuple[Slab, ...]:
    """Sorted, distinct slabs with the move's stacked pair swapped for the
    other, by two deletions and two sorted insertions."""
    lower, upper = _stacked_pair(move.corner, move.from_normal)
    i, j = bisect_left(slabs, lower), bisect_left(slabs, upper)
    if lower not in slabs[i : i + 1] or upper not in slabs[j : j + 1]:
        raise MoveNotApplicable(f"no stacked pair with normal {move.from_normal}")
    # lower sorts before upper, so deleting upper first keeps lower at i
    patched = list(slabs)
    del patched[j], patched[i]
    for slab in _stacked_pair(move.corner, move.to_normal):
        insort(patched, slab)
    return tuple(patched)


def slab_flip_components(
    region: Region, cap: int | None = 1_000_000
) -> list[list[SlabTiling]]:
    """Component census over the slab flips of every slab tiling: the
    components, each listing its tilings in enumeration order."""
    tilings = {t.slabs: t for t in enumerate_slab_tilings(region, cap)}

    def neighbors(slabs):
        # enumerated slabs are sorted, and every move listed has a valid target
        return (_patched_slabs(slabs, move) for move in list_slab_flips(tilings[slabs]))

    found = components(tilings, neighbors)
    ordered = list(tilings.values())
    return [[ordered[i] for i in ids] for ids in found]


# ---------------------------------------------------------------------------
# JSON-lines slab tiling files, mirroring the domino format


def slab_tiling_json(tiling: SlabTiling) -> str:
    return json.dumps({"slabs": [[list(s.corner), s.normal] for s in tiling.slabs]})


def slab_tiling_from_record(rec: dict, region: Region) -> SlabTiling:
    if region.d != 3:
        raise InvalidRegion("slab tilings are defined for d=3")
    with decoding("slab tiling"):
        slabs = tuple(Slab(tuple(corner), normal) for corner, normal in rec["slabs"])
        for corner, normal in slabs:
            # JSON's 2.0 and true compare equal to 2 and 1, so check the types
            if {type(x) for x in (*corner, normal)} != {int} or normal not in range(3):
                bad = json.dumps([list(corner), normal])
                raise DecodeError(f"slab {bad} needs integer coordinates and a normal 0..2")
        tiling = SlabTiling(region, slabs)
        report = validate_slab_tiling(tiling)
    if report is not None:
        raise InvalidRegion(report)
    return tiling


def write_slab_tilings(path, region: Region, tilings: Iterable[SlabTiling]) -> int:
    return write_records(path, region, tilings, slab_tiling_json)


def read_slab_tilings(path) -> tuple[Region, list[SlabTiling]]:
    return read_records(path, slab_tiling_from_record)
