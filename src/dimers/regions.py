"""The region layer: cells, regions and region records.

A cell is the integer min-corner of a unit cube in Z^d.  A Region is an
immutable collection of cells with its neighbor tables, built on first
use; a Domino is named by its low cell and axis.  The builders make
boxes, cylinders and general cell sets.  A region record is the JSON
form of a region that tiling files, disk files and manifests carry.

`matchings` is the one search over domino matchings: enumeration, the
counting module's floor fills and the twist's reference tiling all run
it.  A count reads nothing of the package's values but these, so this
module holds no tiling: tilings live in `core`, which re-exports every
name here.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple

from .errors import DecodeError, DimersError, InvalidRegion

Cell = tuple[int, ...]

WHITE = 1
BLACK = -1


def color_sign(cell: Cell) -> int:
    """+1 (white) when the coordinate sum is even, -1 (black) otherwise."""
    return WHITE if sum(cell) % 2 == 0 else BLACK


class Domino(NamedTuple):
    """A domino named by its lexicographically smaller cell and its axis."""

    low: Cell
    axis: int


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


# ---------------------------------------------------------------------------
# region records: the JSON form of a region, and the readers of the
# JSON-lines and disk files that carry one


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
