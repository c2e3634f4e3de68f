"""Tilings on the cubic lattice.

A tiling is an immutable perfect matching of a Region, stored as a
fixed-point-free involution on cell indices.  Everything downstream
(moves, counting, twist, sampling) works on regions and tilings, so both
are safe to share between workers.  This module holds the tiling layer:
validation, the all-vertical base tiling, 5x refinement, vertical
extension, the canonical byte encoding, floor rendering and the
JSON-lines tiling files.  `open_records` reads a tiling or slab file one
line at a time.  The tables these read are cached functions of a region
here: its dominoes by cell pair (`pair_dominoes`), their JSON texts
(`domino_json`) and each cell's direction code to each neighbour
(`direction_codes`).

The region layer (cells, regions, their builders and records) lives in
`regions`, which a count loads without this module; every name of it is
re-exported here as the same object.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from functools import lru_cache, partial
from itertools import chain, islice, product
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
from .regions import (  # the region layer, re-exported
    BLACK,
    WHITE,
    Cell,
    Domino,
    Region,
    _integer,
    _make_box,
    color_sign,
    decoding,
    json_record,
    make_box,
    make_cylinder,
    make_region,
    matchings,
    open_text,
    region_from_record,
    region_to_record,
)

REFINE_FACTOR = 5  # each cube splits into 5x5x5; no other factor is exposed


class Tiling(NamedTuple):
    """Perfect matching of a region, as an involution on cell indices."""

    region: Region
    partner: tuple[int, ...]

    def dominoes(self) -> list[Domino]:
        table = pair_dominoes(self.region)
        return [table[i, j] for i, j in enumerate(self.partner) if i < j]

    @property
    def n_dominoes(self) -> int:
        return len(self.partner) // 2


@lru_cache(maxsize=16)
def pair_dominoes(region: Region) -> dict[tuple[int, int], Domino]:
    """(i, j) -> the domino on adjacent cells i < j, cell j the entry
    for +axis in cell i's neighbor_table row.  Built once per region, so
    per-tiling code looks a domino up instead of deriving it from cells."""
    cells = region.cells
    return {
        (i, row[2 * axis]): Domino(cells[i], axis)
        for i, row in enumerate(region.neighbor_table)
        for axis in range(region.d)
        if row[2 * axis] >= 0
    }


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
    """All-vertical tiling of a region whose cells are a prism
    (Region.prism) of even height, pairing floor 2k with floor 2k+1."""
    if region.prism is None:
        raise NoBaseTiling("all-vertical tiling needs a box or cylinder")
    height = region.prism[1]
    if height % 2 != 0:
        raise NoBaseTiling(f"height {height} is odd")
    table, up = region.neighbor_table, 2 * (region.d - 1)
    # an even floor's partner is one step up (code up), an odd one's down
    return Tiling(region, tuple(table[i][up + c[-1] % 2] for i, c in enumerate(region.cells)))


@lru_cache(maxsize=16)
def refine_region(region: Region) -> Region:
    """Split every cube into 5x5x5 smaller cubes (3D only).  Repeated
    calls on one region return the same refined Region."""
    if region.d != 3:
        raise InvalidRegion("refinement is defined for d=3 only")
    f = REFINE_FACTOR
    if region.dims:
        return make_box(tuple(f * s for s in region.dims))
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
    if region.prism is None:
        raise InvalidRegion("vertical extension needs a box or cylinder")
    ensure_valid(tiling)
    dominoes = tiling.dominoes()
    disk, h = region.prism
    vertical = region.d - 1
    for base in disk:
        for z in range(h, h + extra, 2):
            dominoes.append(Domino(base + (z,), vertical))
    return tiling_from_dominoes(_with_floors(region, extra), dominoes)


@lru_cache(maxsize=16)
def _with_floors(region: Region, extra: int) -> Region:
    """The prism region with `extra` more floors; repeated calls on one
    region return the same Region."""
    disk, h = region.prism
    return make_cylinder(Region(region.d - 1, disk), h + extra)


# ---------------------------------------------------------------------------
# canonical byte encoding
#
# Three bits per cell, cells in lexicographic order, little-endian bit
# packing.  The code of a cell is 2*axis + (0 if the partner sits at +axis
# else 1), the partner's position in the cell's neighbor_table row
# (direction_codes), which caps the supported dimension at 4.

_MAX_ENCODE_D = 4


def require_encodable(region: Region) -> None:
    """Refuse a region whose direction codes need more than three bits."""
    if region.d > _MAX_ENCODE_D:
        raise InvalidRegion("canonical encoding supports d <= 4")


@lru_cache(maxsize=16)
def direction_codes(region: Region) -> tuple[dict[int, str], ...]:
    """direction_codes(region)[i][j]: the position of cell j in
    region.neighbor_table[i], as one octal digit; d >= 5 is refused."""
    require_encodable(region)
    return tuple(
        {j: str(code) for code, j in enumerate(row) if j >= 0}
        for row in region.neighbor_table
    )


def encode(tiling: Tiling) -> bytes:
    region = tiling.region
    # one octal digit per cell, cell 0 the least significant
    digits = "".join(map(getitem, direction_codes(region), tiling.partner))
    return int(digits[::-1] or "0", 8).to_bytes((3 * region.n_cells + 7) // 8, "little")


@lru_cache(maxsize=16)
def flip_steps(region: Region) -> tuple[tuple[int, int], ...]:
    """For each window of moves.flip_windows(region), in order, the change
    of int.from_bytes(encode(t), "little") when t's flip there rotates a
    parallel pair along the window's first (side 0) or second (side 1)
    axis.  A flip rewrites the codes of the window's four cells only, so
    a neighbour's key is its tiling's key plus the step of that side."""
    from .moves import flip_windows  # moves imports this module

    codes = direction_codes(region)

    def pair_key(i: int, j: int) -> int:
        return int(codes[i][j]) << 3 * i | int(codes[j][i]) << 3 * j

    steps = []
    for i00, i10, i01, i11 in flip_windows(region).values():
        step = pair_key(i00, i01) + pair_key(i10, i11) - pair_key(i00, i10) - pair_key(i01, i11)
        steps.append((step, -step))
    return tuple(steps)


def decode(data: bytes, region: Region) -> Tiling:
    require_encodable(region)
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
                   for codes in direction_codes(region))
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


@lru_cache(maxsize=16)
def domino_json(region: Region) -> dict[tuple[int, int], str]:
    """(i, j) -> the JSON text [[x, y, ...], axis] of pair_dominoes(region)
    [i, j], as json.dumps writes it."""
    return {
        pair: f"[[{', '.join(map(str, low))}], {axis}]"
        for pair, (low, axis) in pair_dominoes(region).items()
    }


def tiling_json(tiling: Tiling, text: dict | None = None) -> str:
    """The tiling's record {"dominoes": [[low cell, axis], ...]} as the
    JSON text json.dumps gives, joined from text, its region's
    domino_json, which a writer of many tilings passes in."""
    if text is None:
        text = domino_json(tiling.region)
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
    the number of items.  The first item is drawn and checked before the
    file is opened, so a generator that refuses its work (a cap) or a
    first item on another region creates no file and leaves one already
    there as it was."""
    def on_region(item):
        if item.region != region:
            raise RegionMismatch("tiling does not live on the header region")
        return item

    count = 0
    items = map(on_region, items)
    first = list(islice(items, 1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(region_to_record(region)) + "\n")
        for item in chain(first, items):
            fh.write(encode(item) + "\n")
            count += 1
    return count


def write_tilings(path, region: Region, tilings: Iterable[Tiling]) -> int:
    """Write a JSON-lines tiling file; returns the number of tilings."""
    return write_records(path, region, tilings, partial(tiling_json, text=domino_json(region)))


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
    inverting domino_json(region): each domino text is looked up, then the
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
        pair_of = {text[2:-1]: pair for pair, text in domino_json(region).items()}.__getitem__
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
