"""Regions, dominoes and tilings on the cubic lattice.

A cell is the integer min-corner of a unit cube in Z^d.  Regions are
immutable collections of cells; a tiling is an immutable perfect matching
stored as a fixed-point-free involution on cell indices.  Everything
downstream (moves, counting, twist, sampling) works on these two values,
so both are safe to share between workers.

`matchings` is the one search over domino matchings: enumeration, the
counting module's floor fills and the twist's reference tiling all run
it.  `open_records` reads a tiling or slab file one line at a time.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from functools import cached_property, lru_cache
from itertools import chain, combinations, product
from operator import getitem, itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DecodeError,
    DimersError,
    InvalidRegion,
    InvalidTiling,
    NoBaseTiling,
    RegionMismatch,
)

Cell = tuple[int, ...]

WHITE = 1
BLACK = -1

REFINE_FACTOR = 5  # each cube splits into 5x5x5; no other factor is exposed


def color_sign(cell: Cell) -> int:
    """+1 (white) when the coordinate sum is even, -1 (black) otherwise."""
    return WHITE if sum(cell) % 2 == 0 else BLACK


_REGION_FIELDS = ("d", "cells", "kind", "dims", "height", "disk_cells")


class Region:
    """Immutable finite set of unit cells in Z^d.

    kind is "box", "cylinder" (disk x [0, height)) or "general".  Box and
    cylinder regions keep enough structure to build the all-vertical base
    tiling; general regions are plain sorted cell lists.

    Two regions are equal when their six fields are.  The hash of the
    fields is taken once, since every table cache is keyed by a region;
    the tables themselves are built on first use.
    """

    def __init__(
        self,
        d: int,
        cells: tuple[Cell, ...],
        kind: str = "general",
        dims: tuple[int, ...] | None = None,
        height: int | None = None,
        disk_cells: tuple[Cell, ...] | None = None,
    ):
        fields = (d, cells, kind, dims, height, disk_cells)
        self.__dict__.update(zip(_REGION_FIELDS, fields), _key=fields, _hash=hash(fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(_REGION_FIELDS, self._key))
        return f"Region({fields})"

    def __reduce__(self):
        # rebuilt from the fields, so a copy hashes in its own process
        return Region, self._key

    @cached_property
    def index(self) -> dict[Cell, int]:
        return {c: i for i, c in enumerate(self.cells)}

    @cached_property
    def neighbor_table(self) -> tuple[tuple[int, ...], ...]:
        """neighbor_table[i][2*axis + s]: cell index one step along +axis
        (s=0) or -axis (s=1), or -1 when that cell is outside the region."""
        idx = self.index
        rows = []
        for cell in self.cells:
            row = []
            for axis in range(self.d):
                for delta in (1, -1):
                    nb = cell[:axis] + (cell[axis] + delta,) + cell[axis + 1 :]
                    row.append(idx.get(nb, -1))
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def forward(self) -> tuple[tuple[int, ...], ...]:
        """forward[i]: the cells one step along +axis from cell i, in axis
        order.  Each follows cell i in the sorted cells, so a sweep in
        index order meets it later."""
        return tuple(
            tuple(row[2 * axis] for axis in range(self.d) if row[2 * axis] >= 0)
            for row in self.neighbor_table
        )

    @cached_property
    def flip_windows(self) -> dict[tuple[int, tuple[int, int]], tuple[int, ...]]:
        """(corner index, (a, b)) -> cell indices (i00, i10, i01, i11) of
        each 2x2 window inside the region, i10 one step along +a from the
        corner and i01 one step along +b.  Ordered by corner, then axes."""
        table = self.neighbor_table
        out = {}
        for i, row in enumerate(table):
            for a, b in combinations(range(self.d), 2):
                i10, i01 = row[2 * a], row[2 * b]
                if i10 >= 0 and i01 >= 0 and table[i10][2 * b] >= 0:
                    out[(i, (a, b))] = (i, i10, i01, table[i10][2 * b])
        return out

    @cached_property
    def trit_windows(self) -> dict[tuple[int, tuple[int, int, int]], tuple]:
        """(corner index, axes) -> (ids, swaps) for each 2x2x2 window inside
        the region, ordered like flip_windows.  ids are the eight cell
        indices, sorted.  swaps maps each matching of six of them with one
        domino per axis, as sorted index pairs, to the only other one."""
        table = self.neighbor_table
        out = {}
        for i in range(len(table)):
            for axes in combinations(range(self.d), 3):
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

    @cached_property
    def pair_dominoes(self) -> dict[tuple[int, int], Domino]:
        """(i, j) -> the domino on adjacent cells i < j, cell j the entry
        for +axis in cell i's neighbor_table row.  Built once, so per-tiling
        code looks a domino up instead of deriving it from the cells."""
        cells = self.cells
        return {
            (i, row[2 * axis]): Domino(cells[i], axis)
            for i, row in enumerate(self.neighbor_table)
            for axis in range(self.d)
            if row[2 * axis] >= 0
        }

    @cached_property
    def domino_json(self) -> dict[tuple[int, int], str]:
        """(i, j) -> the JSON text [[x, y, ...], axis] of its domino, as
        json.dumps writes it, for the pairs of pair_dominoes."""
        lows = [", ".join(map(str, cell)) for cell in self.cells]
        return {
            (i, row[2 * axis]): f"[[{lows[i]}], {axis}]"
            for i, row in enumerate(self.neighbor_table)
            for axis in range(self.d)
            if row[2 * axis] >= 0
        }

    @cached_property
    def direction_codes(self) -> tuple[dict[int, str], ...]:
        """direction_codes[i][j]: the position of cell j in
        neighbor_table[i], as one octal digit."""
        return tuple(
            {j: str(code) for code, j in enumerate(row) if j >= 0}
            for row in self.neighbor_table
        )

    @cached_property
    def derived(self) -> dict[tuple, Region]:
        """Regions built from this one by refine_region and
        add_vertical_floors, by (operation, argument), so that repeated
        calls return one Region and the tables it builds serve them all."""
        return {}

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @cached_property
    def white_count(self) -> int:
        return sum(1 for c in self.cells if color_sign(c) == WHITE)

    @property
    def black_count(self) -> int:
        return self.n_cells - self.white_count

    def balanced(self) -> bool:
        return self.white_count * 2 == self.n_cells

    def contains(self, cell: Cell) -> bool:
        return cell in self.index

    @cached_property
    def bounding_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(min corner, max corner) over all cells; raises on empty regions."""
        if not self.cells:
            raise InvalidRegion("empty region has no bounding box")
        lo = tuple(min(c[a] for c in self.cells) for a in range(self.d))
        hi = tuple(max(c[a] for c in self.cells) for a in range(self.d))
        return lo, hi


def matchings(forward, partner: list[int], open_cells: int = 0) -> Iterator[int]:
    """Match the free cells (partner -1) in pairs along a Region.forward
    or, when in open_cells, singly with the cell above.  The first free
    cell i tries the cell above, then each free cell of forward[i] in
    order.  partner is filled in place, a cell matched above holding
    len(forward); each complete matching yields the mask of those cells,
    and partner is as given when the search ends."""
    n = len(forward)

    def rec(i: int, up: int) -> Iterator[int]:
        while i < n and partner[i] != -1:
            i += 1
        if i == n:
            yield up
            return
        if open_cells >> i & 1:
            partner[i] = n
            yield from rec(i + 1, up | 1 << i)
        for j in forward[i]:
            if partner[j] == -1:
                partner[i], partner[j] = j, i
                yield from rec(i + 1, up)
                partner[j] = -1
        partner[i] = -1

    return rec(0, 0)


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


def make_region(cells: Iterable[Cell], d: int | None = None) -> Region:
    """General region from an iterable of cells (sorted, deduplicated)."""
    cell_list = sorted(set(tuple(int(x) for x in c) for c in cells))
    if d is None:
        if not cell_list:
            raise InvalidRegion("dimension required for an empty region")
        d = len(cell_list[0])
    if d < 2:
        raise InvalidRegion(f"dimension must be >= 2, got {d}")
    for c in cell_list:
        if len(c) != d:
            raise InvalidRegion(f"cell {c} does not have {d} coordinates")
        if any(x < 0 for x in c):
            raise InvalidRegion(f"cell {c} has a negative coordinate")
    return Region(d=d, cells=tuple(cell_list))


def make_box(dims: Iterable[int]) -> Region:
    """Full L x M x ... product region.  Equal dimensions give the same
    Region object, so the tables it builds serve every tiling of it."""
    return _make_box(tuple(int(s) for s in dims))


@lru_cache(maxsize=16)
def _make_box(dims: tuple[int, ...]) -> Region:
    if len(dims) < 2:
        raise InvalidRegion("a box needs at least two dimensions")
    if any(s < 1 for s in dims):
        raise InvalidRegion(f"box dimensions must be >= 1, got {dims}")
    cells = tuple(sorted(product(*(range(s) for s in dims))))
    disk = tuple(sorted(product(*(range(s) for s in dims[:-1]))))
    return Region(
        d=len(dims),
        cells=cells,
        kind="box",
        dims=dims,
        height=dims[-1],
        disk_cells=disk,
    )


def make_cylinder(disk: Region, height: int) -> Region:
    """Product region disk x [0, height)."""
    if height < 1:
        raise InvalidRegion(f"cylinder height must be >= 1, got {height}")
    cells = tuple(sorted(c + (z,) for c in disk.cells for z in range(height)))
    dims = disk.dims + (height,) if disk.kind == "box" and disk.dims else None
    return Region(
        d=disk.d + 1,
        cells=cells,
        kind="cylinder",
        dims=dims,
        height=height,
        disk_cells=disk.cells,
    )


class Domino(NamedTuple):
    """A domino named by its lexicographically smaller cell and its axis."""

    low: Cell
    axis: int


class Tiling(NamedTuple):
    """Perfect matching of a region, as an involution on cell indices."""

    region: Region
    partner: tuple[int, ...]

    def dominoes(self) -> list[Domino]:
        table = self.region.pair_dominoes
        return [table[i, j] for i, j in enumerate(self.partner) if i < j]

    @property
    def n_dominoes(self) -> int:
        return len(self.partner) // 2


def matched(partner, pairs) -> tuple[int, ...]:
    """partner with the cells of each index pair (i, j) matched together."""
    new = list(partner)
    for i, j in pairs:
        new[i], new[j] = j, i
    return tuple(new)


def tiling_from_dominoes(region: Region, dominoes: Iterable[Domino]) -> Tiling:
    """Build and validate a tiling from (low cell, axis) pairs.  A domino
    pairs its low cell's index with the neighbor_table entry one step
    along +axis, and an overlap is refused, so the pairing is mutual and
    adjacent by construction; what is left to check is that it covers
    every cell (the report `validate` gives for the first one it misses)."""
    partner = [-1] * region.n_cells
    index, table = region.index, region.neighbor_table
    # +axis's position in a row, for 0 <= axis < d only: a negative axis
    # must not read the row from its end
    codes = {axis: 2 * axis for axis in range(region.d)}
    for dom in dominoes:
        low, axis = dom
        i, code = index.get(tuple(low), -1), codes.get(axis, -1)
        j = table[i][code] if i >= 0 and code >= 0 else -1
        if j < 0:
            raise InvalidTiling(f"domino {dom} is not a domino of the region")
        if partner[i] != -1 or partner[j] != -1:
            raise InvalidTiling(f"domino {dom} overlaps another domino")
        partner[i], partner[j] = j, i
    if -1 in partner:
        raise InvalidTiling(f"cell {region.cells[partner.index(-1)]}: unmatched")
    return Tiling(region, tuple(partner))


def validate(tiling: Tiling, region: Region | None = None) -> str | None:
    """None when the tiling is a valid perfect matching, else a report
    naming the first violating cell."""
    if region is not None and region != tiling.region:
        return "tiling belongs to a different region"
    reg = tiling.region
    cells = reg.cells
    table = reg.neighbor_table
    n = len(cells)
    if len(tiling.partner) != n:
        return f"pairing covers {len(tiling.partner)} of {n} cells"
    for i, j in enumerate(tiling.partner):
        if not 0 <= j < n:
            return f"cell {cells[i]}: unmatched"
        if j == i:
            return f"cell {cells[i]}: matched to itself"
        if tiling.partner[j] != i:
            return f"cell {cells[i]}: pairing is not mutual"
        if j not in table[i]:
            return f"cell {cells[i]}: partner {cells[j]} is not adjacent"
    return None


def ensure_valid(tiling: Tiling) -> None:
    """Raise InvalidTiling with validate's report, if it gives one."""
    report = validate(tiling)
    if report is not None:
        raise InvalidTiling(report)


def base_vertical_tiling(region: Region) -> Tiling:
    """All-vertical tiling of a box or cylinder of even height, pairing
    floor 2k with floor 2k+1."""
    if region.kind not in ("box", "cylinder") or region.height is None:
        raise NoBaseTiling("all-vertical tiling needs a box or cylinder")
    if region.height % 2 != 0:
        raise NoBaseTiling(f"height {region.height} is odd")
    table, up = region.neighbor_table, 2 * (region.d - 1)
    # an even floor's partner is one step up (code up), an odd one's down
    return Tiling(region, tuple(table[i][up + c[-1] % 2] for i, c in enumerate(region.cells)))


def _derived(region: Region, key: tuple, build) -> Region:
    """build(), kept in region.derived under key."""
    found = region.derived.get(key)
    if found is None:
        found = region.derived[key] = build()
    return found


def refine_region(region: Region) -> Region:
    """Split every cube into 5x5x5 smaller cubes (3D only).  Repeated
    calls on one region return the same refined Region."""
    return _derived(region, ("refine",), lambda: _refine_region(region))


def _refine_region(region: Region) -> Region:
    if region.d != 3:
        raise InvalidRegion("refinement is defined for d=3 only")
    f = REFINE_FACTOR
    if region.kind == "box" and region.dims:
        return make_box(tuple(f * s for s in region.dims))
    if region.kind == "cylinder" and region.disk_cells and region.height:
        disk = make_region(
            (f * x + i, f * y + j)
            for (x, y) in region.disk_cells
            for i, j in product(range(f), repeat=2)
        )
        return make_cylinder(disk, f * region.height)
    return make_region(
        (f * x + i, f * y + j, f * z + k)
        for (x, y, z) in region.cells
        for i, j, k in product(range(f), repeat=3)
    )


def refine_tiling(tiling: Tiling) -> Tiling:
    """Split every domino into 125 parallel dominoes on the refined region."""
    ensure_valid(tiling)
    f = REFINE_FACTOR
    refined = refine_region(tiling.region)
    index, table = refined.index, refined.neighbor_table
    partner = [-1] * refined.n_cells
    for low, axis in tiling.dominoes():
        # the refined block is 2f long on `axis` and f wide on the others
        spans = [range(f * x, f * x + f) for x in low]
        spans[axis] = range(f * low[axis], f * low[axis] + 2 * f, 2)
        for i in map(index.__getitem__, product(*spans)):
            j = table[i][2 * axis]
            partner[i], partner[j] = j, i
    return Tiling(refined, tuple(partner))


def add_vertical_floors(tiling: Tiling, extra: int) -> Tiling:
    """Extend a cylinder tiling by `extra` (even) floors of vertical
    dominoes on top; the original dominoes are untouched."""
    if extra % 2 != 0 or extra < 0:
        raise InvalidRegion(f"extra floor count must be even and >= 0, got {extra}")
    if extra == 0:
        return tiling
    region = tiling.region
    if region.kind not in ("box", "cylinder") or region.height is None:
        raise InvalidRegion("vertical extension needs a box or cylinder")
    h = region.height
    if region.kind == "box" and region.dims:
        new_region = make_box(region.dims[:-1] + (h + extra,))
    else:
        new_region = _derived(region, ("floors", extra), lambda: make_cylinder(
            make_region(region.disk_cells, d=region.d - 1), h + extra
        ))
    ensure_valid(tiling)
    dominoes = tiling.dominoes()
    vertical = region.d - 1
    for base in region.disk_cells:
        for z in range(h, h + extra, 2):
            dominoes.append(Domino(base + (z,), vertical))
    return tiling_from_dominoes(new_region, dominoes)


# ---------------------------------------------------------------------------
# canonical byte encoding
#
# Three bits per cell, cells in lexicographic order, little-endian bit
# packing.  The code of a cell is 2*axis + (0 if the partner sits at +axis
# else 1), the partner's position in the cell's neighbor_table row, which
# caps the supported dimension at 4.

_MAX_ENCODE_D = 4


def encode(tiling: Tiling) -> bytes:
    region = tiling.region
    if region.d > _MAX_ENCODE_D:
        raise InvalidRegion("canonical encoding supports d <= 4")
    # one octal digit per cell, cell 0 the least significant
    digits = "".join(map(getitem, region.direction_codes, tiling.partner))
    return int(digits[::-1] or "0", 8).to_bytes((3 * region.n_cells + 7) // 8, "little")


def decode(data: bytes, region: Region) -> Tiling:
    if region.d > _MAX_ENCODE_D:
        raise InvalidRegion("canonical encoding supports d <= 4")
    n = region.n_cells
    if len(data) != (3 * n + 7) // 8:
        raise DecodeError(f"expected {(3 * n + 7) // 8} bytes, got {len(data)}")
    acc = int.from_bytes(data, "little")
    if acc >> (3 * n):
        raise DecodeError("nonzero padding bits")
    return _tiling_from_codes(region, [(acc >> (3 * i)) & 7 for i in range(n)])


def _tiling_from_codes(region: Region, codes: list[int]) -> Tiling:
    """The tiling matching cell i along direction code codes[i], its
    partner's position in neighbor_table[i]; DecodeError unless every code
    is in range, every partner inside the region and the pairing mutual."""
    table = region.neighbor_table
    partner = []
    for i, code in enumerate(codes):
        if not 0 <= code < 2 * region.d:
            raise DecodeError(f"cell {region.cells[i]}: direction code {code}")
        j = table[i][code]
        if j < 0:
            raise DecodeError(f"cell {region.cells[i]}: partner outside region")
        partner.append(j)
    for i, j in enumerate(partner):
        if partner[j] != i:
            raise DecodeError(f"cell {region.cells[i]}: pairing is not mutual")
    return Tiling(region, tuple(partner))


# ---------------------------------------------------------------------------
# floor rendering
#
# One character per cell, one grid per floor.  The glyph gives the direction
# of the cell's partner: > < along x, ^ v along y, U D along z (partner on
# the floor above / below).  Rows are printed with y decreasing so that ^
# points up on screen.

_GLYPHS = "><^vUD"


@lru_cache(maxsize=16)
def _floor_layout(region: Region) -> tuple:
    """render_floors' picture of a region, built once: each cell's glyph
    by partner, the fixed pieces of the diagram ('.', newlines, floor
    headers), and a getter that picks the diagram's characters, in order,
    from the cells' glyphs followed by the fixed pieces."""
    lo, hi = region.bounding_box
    idx = region.index
    fixed: dict[str, int] = {}
    order: list[int] = []

    def put(text: str) -> None:
        order.append(fixed.setdefault(text, region.n_cells + len(fixed)))

    floors = range(lo[2], hi[2] + 1) if region.d == 3 else range(0, 1)
    for z in floors:
        if z != floors[0]:
            put("\n")  # a blank line between floors
        if region.d == 3:
            put(f"floor {z}\n")
        for y in range(hi[1], lo[1] - 1, -1):
            for x in range(lo[0], hi[0] + 1):
                i = idx.get((x, y, z)[: region.d])
                if i is None:
                    put(".")
                else:
                    order.append(i)
            put("\n")
    glyphs = tuple({j: _GLYPHS[int(code)] for j, code in codes.items()}
                   for codes in region.direction_codes)
    return glyphs, tuple(fixed), itemgetter(*order)


def render_floors(tiling: Tiling) -> str:
    """Text diagram of a 2D or 3D tiling, floor by floor."""
    region = tiling.region
    if region.d not in (2, 3):
        raise InvalidRegion("floor rendering supports d=2 and d=3")
    glyphs, fixed, pick = _floor_layout(region)
    chars = list(map(getitem, glyphs, tiling.partner))
    chars += fixed
    return "".join(pick(chars))


# ---------------------------------------------------------------------------
# JSON-lines tiling files: a header record describing the region, then one
# record per tiling listing its dominoes as [low cell, axis] pairs.


def region_to_record(region: Region) -> dict:
    rec: dict = {"d": region.d, "kind": region.kind}
    if region.kind == "box" and region.dims:
        rec["dims"] = list(region.dims)
    elif region.kind == "cylinder":
        rec["disk_cells"] = [list(c) for c in region.disk_cells]
        rec["height"] = region.height
    else:
        rec["cells"] = [list(c) for c in region.cells]
    return rec


@contextmanager
def decoding(kind: str):
    """Report a record without the fields or shapes the block reads as a
    DecodeError instead of a KeyError, TypeError or ValueError."""
    try:
        yield
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise DecodeError(f"not a {kind} record ({type(exc).__name__}: {exc})") from None


def _integer(value, field: str):
    """The record's value, refused unless it is a JSON integer: int()
    would truncate 2.7, and 2.0 and true compare equal to 2 and 1."""
    if type(value) is not int:
        raise DecodeError(f"region {field} {json.dumps(value)} is not an integer")
    return value


def region_from_record(rec: dict) -> Region:
    with decoding("region"):
        kind = rec.get("kind", "general")
        d = _integer(rec["d"], "d")
        if kind == "box":
            dims = [_integer(side, "dims entry") for side in rec["dims"]]
            if len(dims) != d:
                raise DecodeError(f"region d {d} does not match {len(dims)} dims {dims}")
            return make_box(dims)
        cells = rec["disk_cells" if kind == "cylinder" else "cells"]
        cells = [tuple(_integer(x, "coordinate") for x in cell) for cell in cells]
        if kind == "cylinder":
            return make_cylinder(make_region(cells, d=d - 1), _integer(rec["height"], "height"))
        return make_region(cells, d=d)


def tiling_json(tiling: Tiling) -> str:
    """The tiling's record {"dominoes": [[low cell, axis], ...]} as the
    JSON text json.dumps gives, joined from the region's domino texts."""
    text = tiling.region.domino_json
    return '{"dominoes": [' + ", ".join(
        [text[i, j] for i, j in enumerate(tiling.partner) if i < j]
    ) + "]}"


def tiling_from_record(rec: dict, region: Region) -> Tiling:
    with decoding("tiling"):
        dominoes = rec["dominoes"]
        if set(map(len, dominoes)) - {2}:
            raise ValueError("a domino is not a [low cell, axis] pair")
        # JSON's 2.0 and true compare equal to 2 and 1, so check the types
        kinds = set(map(type, map(itemgetter(1), dominoes)))
        kinds.update(map(type, chain.from_iterable(map(itemgetter(0), dominoes))))
        if not kinds <= {int}:
            bad = next(dom for dom in dominoes if {type(x) for x in (*dom[0], dom[1])} != {int})
            raise DecodeError(f"domino {json.dumps(bad)} has a non-integer coordinate or axis")
        return tiling_from_dominoes(region, dominoes)


def write_records(path, region: Region, items: Iterable, encode) -> int:
    """Write a JSON-lines file: a region header, then the JSON text
    encode(item) of each item, which must live on that region.  Returns
    the number of items."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(region_to_record(region)) + "\n")
        for item in items:
            if item.region != region:
                raise RegionMismatch("tiling does not live on the header region")
            fh.write(encode(item) + "\n")
            count += 1
    return count


def write_tilings(path, region: Region, tilings: Iterable[Tiling]) -> int:
    """Write a JSON-lines tiling file; returns the number of tilings."""
    return write_records(path, region, tilings, tiling_json)


def json_record(line: str, path, lineno: int, decode):
    """decode(the JSON value on line `lineno` of `path`).  When the line
    is not JSON, is nested too deeply for the parser, or decode raises a
    package error, the error names the file and line."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"{path} line {lineno}: bad JSON ({exc.msg})") from None
    except RecursionError:
        raise DecodeError(f"{path} line {lineno}: bad JSON (nested too deeply)") from None
    try:
        return decode(rec)
    except DimersError as exc:
        raise type(exc)(f"{path} line {lineno}: {exc}") from None


@contextmanager
def open_text(path):
    """The file opened for reading as UTF-8; bytes that are not UTF-8
    raise a DecodeError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise DecodeError(f"{path}: not UTF-8 text") from None


def _read_header(fh, path) -> Region:
    """The region of the header line of the file open as fh."""
    header = fh.readline()
    if not header:
        raise DecodeError(f"{path}: empty tiling file")
    return json_record(header, path, 1, region_from_record)


# tiling_json's line with its newline is _LINE_HEAD, the domino texts
# without their first two and last characters joined by _DOMINO_SEP, and
# _LINE_TAIL
_LINE_HEAD, _DOMINO_SEP, _LINE_TAIL = '{"dominoes": [[[', "], [[", "]]}\n"


def _tiling_by_lookup(line: str, region: Region, pair_of) -> Tiling | None:
    """The tiling on a line spelled exactly as write_tilings writes it,
    each domino text's pair read by pair_of; None for any other line, and
    for one whose dominoes overlap or leave a cell uncovered."""
    if not (line.startswith(_LINE_HEAD) and line.endswith(_LINE_TAIL)):
        return None
    partner = [-1] * region.n_cells
    try:
        for i, j in map(pair_of, line[len(_LINE_HEAD) : -len(_LINE_TAIL)].split(_DOMINO_SEP)):
            if partner[i] >= 0 or partner[j] >= 0:
                return None
            partner[i], partner[j] = j, i
    except KeyError:
        return None
    return None if -1 in partner else Tiling(region, tuple(partner))


@contextmanager
def open_records(path, decode=None):
    """A JSON-lines file read one line at a time: yields (region,
    items), the header's region and an iterator over decode(record,
    region) of each non-blank line after it, each line read as the
    iterator is advanced.  The file stays open inside the with block.

    decode None reads a tiling file.  The writer's own lines are read by
    inverting region.domino_json: each domino text is looked up, then the
    overlap and cover checks of tiling_from_dominoes run.  The table holds
    only the writer's texts, all integers, so a line read this way is one
    the JSON route accepts with the same partners.  Any other line, and
    one whose lookup or checks fail, goes through json_record and
    tiling_from_record, which give every error report."""
    with open_text(path) as fh:
        region = _read_header(fh, path)
        yield region, _items(fh, path, region, decode)


def _items(fh, path, region: Region, decode) -> Iterator:
    """open_records' iterator over the lines of fh after the header."""
    lookup = None
    if decode is None:
        decode = tiling_from_record
        pair_of = {text[2:-1]: pair for pair, text in region.domino_json.items()}.__getitem__
        lookup = lambda line: _tiling_by_lookup(line, region, pair_of)
    for lineno, line in enumerate(fh, 2):
        if line.strip():
            yield (lookup and lookup(line)) or json_record(
                line, path, lineno, lambda rec: decode(rec, region)
            )


def read_records(path, decode) -> tuple[Region, list]:
    """A JSON-lines file: a region header, then decode(record, region) of
    each non-blank line after it."""
    with open_records(path, decode) as (region, items):
        return region, list(items)


def read_tilings(path) -> tuple[Region, list[Tiling]]:
    """A tiling file's region and tilings, read as open_records reads them."""
    with open_records(path) as (region, tilings):
        return region, list(tilings)
