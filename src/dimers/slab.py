"""Slab (2x2x1 block) tilings and the triple twist.

Cells carry one of four colors determined by the parities of x+z and y+z,
so that every slab, whatever its normal, covers each color exactly once.
Keeping one pair of colors and collapsing the other two squeezes the
region along a diagonal; each slab's two surviving cells land on adjacent
cells of the squeezed region, turning the slab tiling into a domino
tiling whose twist is a slab-flip invariant.  Three independent color
pairs give the triple twist.

The slab with normal n at a cell covers its flip window in the other two
axes.  `validate_slab_tiling` is the one rule for whether a slab list is
a tiling; records, inflation, pair twists and slab flips ask it once
each, and what they read afterwards assumes a tiling.  Inflation and
pair twists read one table per region and color pair: each slab as the
index pair of its two survivors in the squeezed region.  One generator
yields the flips for listing, applying and the census, which keys
tilings by corner normals: per cell, 1 + the normal of the slab whose
least cell it is, else 0.  Slabs of normal n cornered at i and i+e_n are
stacked, and their flip to normal m rewrites three bytes: i+e_n to 0, i
and i+e_m to m + 1.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from .core import Cell, Region, Tiling, decoding, make_region, matched, read_records, write_records
from .errors import CapExceeded, DecodeError, InflationError, InvalidRegion, MoveNotApplicable
from .explore import components
from .moves import flip_windows
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
    """None when the slabs cover the region exactly once, else a report:
    the first slab whose normal is not the integer 0, 1 or 2, or the
    first bad cell in the order corner, +b, +a, +a+b (a < b the axes of
    the slab's plane)."""
    region = tiling.region
    index, windows = region.index, flip_windows(region)
    covered: set[int] = set()
    for slab in tiling.slabs:
        if type(slab.normal) is not int or not 0 <= slab.normal <= 2:
            return f"slab {slab}: the normal is not the integer 0, 1 or 2"
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


def _validated(tiling: SlabTiling, error=InflationError, text="{}") -> SlabTiling:
    """The tiling, if the rule above passes it; else `error`, its text
    the rule's report put in `text`."""
    report = validate_slab_tiling(tiling)
    if report is not None:
        raise error(text.format(report))
    return tiling


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
    return _validated(SlabTiling(region, tuple(slabs)), InvalidRegion,
                      "region has no horizontal slab tiling: {}")


# ---------------------------------------------------------------------------
# inflation


@lru_cache(maxsize=64)
def _inflation(region: Region, pair: frozenset) -> tuple[Region, dict[Slab, tuple[int, int]], int]:
    """The squeezed region of the surviving color pair, each slab of the
    region as the sorted index pair of its two survivors there, and the
    reference slab tiling's crossing sum along z.  Every window holds one
    cell of each color, the deflation is one-to-one on the pair's two
    colors, and each window's two survivors land on adjacent cells."""
    i, j = _PAIR_AXES[pair]
    cells = region.cells
    kept = [k for k, cell in enumerate(cells) if four_color(cell) in pair]
    mapped = [list(cells[k]) for k in kept]
    for c in mapped:
        c[i], c[j] = (c[i] + c[j]) // 2, (c[j] - c[i]) // 2
    lo = [min(c[a] for c in mapped) for a in range(3)]
    shifted = [tuple(x - m for x, m in zip(c, lo)) for c in mapped]
    derived = make_region(shifted)
    image = dict(zip(kept, map(derived.index.__getitem__, shifted)))
    table = {
        Slab(cells[corner], 3 - a - b): tuple(sorted(image[k] for k in ids if k in image))
        for (corner, (a, b)), ids in flip_windows(region).items()
    }
    try:
        reference = horizontal_slab_tiling(region)
    except InvalidRegion:
        # callers hold a valid tiling of the region, so it has a first one
        reference = next(enumerate_slab_tilings(region, cap=None))
    return derived, table, _crossings(derived, _slab_partner(derived, table, reference.slabs), 2)


def _slab_partner(derived: Region, table: dict, slabs: Iterable[Slab]) -> tuple[int, ...]:
    """The derived region's partner of the dominoes the slabs inflate to."""
    return matched([-1] * derived.n_cells, map(table.__getitem__, slabs))


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


def _corner_normals(tiling: SlabTiling) -> bytearray:
    """Per cell of a slab tiling, 1 + the normal of the slab cornered
    there, else 0."""
    index, normals = tiling.region.index, bytearray(tiling.region.n_cells)
    for corner, normal in tiling.slabs:
        normals[index[corner]] = normal + 1
    return normals


def _flip_normals(tiling: SlabTiling) -> bytearray:
    return _corner_normals(_validated(tiling, MoveNotApplicable,
                                      "{}: a slab listed is not a slab of a tiling"))


def _slab_flips(table, normals, corners) -> Iterator[tuple[int, int, int, bytes]]:
    """(corner, from normal, to normal, corner normals after) of each flip
    at the corners, in their order, then by target normal."""
    for i in corners:
        n = normals[i] - 1
        if n >= 0 and (j := table[i][2 * n]) >= 0 and normals[j] == n + 1:
            for m in range(3):
                if m != n:
                    after = bytearray(normals)
                    after[j] = 0
                    after[i] = after[table[i][2 * m]] = m + 1
                    yield i, n, m, bytes(after)


def list_slab_flips(tiling: SlabTiling) -> list[SlabFlip]:
    cells, normals = tiling.region.cells, _flip_normals(tiling)
    flips = _slab_flips(tiling.region.neighbor_table, normals, range(len(normals)))
    return [SlabFlip(cells[i], n, m) for i, n, m, _ in flips]


def apply_slab_flip(tiling: SlabTiling, move: SlabFlip) -> SlabTiling:
    if move.to_normal not in range(3) or move.to_normal == move.from_normal:
        raise MoveNotApplicable(f"no flip from normal {move.from_normal} to {move.to_normal}")
    region, normals = tiling.region, _flip_normals(tiling)
    at = region.index.get(move.corner)
    for _, n, m, after in _slab_flips(region.neighbor_table, normals, () if at is None else (at,)):
        if (n, m) == (move.from_normal, move.to_normal):
            slabs = (Slab(region.cells[i], b - 1) for i, b in enumerate(after) if b)
            return SlabTiling(region, tuple(slabs))
    raise MoveNotApplicable(f"no stacked pair with normal {move.from_normal}")


def slab_flip_components(region: Region, cap: int | None = 1_000_000) -> list[list[SlabTiling]]:
    """Component census over slab flips, keyed by corner normals: the
    components, each listing its tilings in enumeration order."""
    tilings = {bytes(_corner_normals(t)): t for t in enumerate_slab_tilings(region, cap)}
    table, corners = region.neighbor_table, range(region.n_cells)
    found = components(tilings, lambda key: (f[3] for f in _slab_flips(table, key, corners)))
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
    return _validated(SlabTiling(region, slabs), InvalidRegion)


def write_slab_tilings(path, region: Region, tilings: Iterable[SlabTiling]) -> int:
    return write_records(path, region, tilings, slab_tiling_json)


def read_slab_tilings(path) -> tuple[Region, list[SlabTiling]]:
    return read_records(path, slab_tiling_from_record)
