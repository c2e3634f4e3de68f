"""The region layer: cells, regions and region records.

A cell is the integer min-corner of a unit cube in Z^d.  A Region is its
dimension and its cells, and nothing else decides its identity: a box
built by make_box, make_cylinder or make_region from the same cells is
one region.  Its neighbor tables, its sides and whether it is a prism
are derived from the cells on first use; the flip and trit windows live
in `moves`, and the domino, JSON and direction-code tables in `core`.
A Domino is named by its low cell and axis.  A region record is the
JSON form of a region that tiling files, disk files and manifests carry;
its kind (box, cylinder or general) is read from the cells.

`matchings` is the one search over domino matchings: enumeration, the
twist's reference tiling, count's block tables, the plug automaton and
the trit hexagons all run it.  A count reads nothing of the package's
values but these, so this module holds no tiling: tilings live in
`core`, which re-exports every name here.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import cached_property, lru_cache
from itertools import chain, product
from operator import lt
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


class Region:
    """Immutable finite set of unit cells in Z^d: its dimension and its
    cells, sorted, distinct and with nonnegative coordinates (the
    constructor refuses others; make_region sorts and deduplicates), which
    alone decide equality, the hash, the repr and a pickle, however the
    region was built.  The hash is taken once, since every table cache is
    keyed by a region.

    Everything else is derived from the cells on first use: the
    neighbor tables, `dims` (the sides, when the cells fill their bounding
    box from the origin), `prism` (the disk and height, when the cells
    are disk x [0, height) along the last axis), the bounding box and the
    colour counts.  The tables of moves, dominoes and encodings are
    cached functions of a region in the modules that read them.
    """

    def __init__(self, d: int, cells: tuple[Cell, ...]):
        if min(chain.from_iterable(cells), default=0) < 0:
            c = next(c for c in cells if min(c) < 0)
            raise InvalidRegion(f"cell {c} has a negative coordinate")
        if not all(map(lt, cells, cells[1:])):
            a, b = next((a, b) for a, b in zip(cells, cells[1:]) if a >= b)
            raise InvalidRegion(f"cells {a} and {b} are not sorted and distinct")
        self.__dict__.update(d=d, cells=cells, _hash=hash((d, cells)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.d == other.d and self.cells == other.cells)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Region(d={self.d!r}, cells={self.cells!r})"

    def __reduce__(self):
        # rebuilt from the fields, so a copy hashes in its own process
        return Region, (self.d, self.cells)

    @cached_property
    def dims(self) -> tuple[int, ...] | None:
        """The sides of the box the cells fill from the origin, or None.
        Cells are nonnegative, so they fill it when they are as many as
        its volume."""
        if not self.cells:
            return None
        sides = tuple(x + 1 for x in self.bounding_box[1])
        return sides if math.prod(sides) == self.n_cells else None

    @cached_property
    def prism(self) -> tuple[tuple[Cell, ...], int] | None:
        """(disk cells, height) when the cells are disk x [0, height) along
        the last axis, or None; a box is one."""
        if not self.cells:
            return None
        disk = tuple(sorted({c[:-1] for c in self.cells}))
        height = max(c[-1] for c in self.cells) + 1
        return (disk, height) if len(disk) * height == self.n_cells else None

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


def matchings(forward, partner: list) -> Iterator[int]:
    """Match the free cells (partner -1) in pairs along forward, a
    Region.forward or a table like it, the first free cell i trying each
    free cell of forward[i] in order.  An entry j >= n = len(forward) names
    a past cell, free at partner[j]: one free cell may be matched to it,
    and it is never filled.  partner is filled in place, and is as given
    when the search ends.  Each matching yields the mask of the past cells
    it matched, bit j - n (0 when partner is no longer than forward)."""
    n = len(forward)
    past = len(partner) > n

    def rec(i: int) -> Iterator[int]:
        while i < n and partner[i] != -1:
            i += 1
        if i == n:
            yield sum(1 << k for k, j in enumerate(partner[n:]) if j != -1) if past else 0
            return
        for j in forward[i]:
            if partner[j] == -1:
                partner[i], partner[j] = j, i
                yield from rec(i + 1)
                partner[j] = -1
        partner[i] = -1

    return rec(0)


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
    return Region(len(dims), tuple(product(*map(range, dims))))


def make_cylinder(disk: Region, height: int) -> Region:
    """Product region disk x [0, height)."""
    if height < 1:
        raise InvalidRegion(f"cylinder height must be >= 1, got {height}")
    return Region(disk.d + 1, tuple(sorted(c + (z,) for c in disk.cells for z in range(height))))


# ---------------------------------------------------------------------------
# region records: the JSON form of a region, and the readers of the
# JSON-lines and disk files that carry one


def region_to_record(region: Region) -> dict:
    """The region's record, its kind read from the cells: a box when they
    fill one from the origin, a cylinder when d >= 3 and they are a prism
    (see Region.prism), else the cells themselves."""
    if region.dims:
        return {"d": region.d, "kind": "box", "dims": list(region.dims)}
    if region.d >= 3 and region.prism:
        disk, height = region.prism
        disk_cells = [list(c) for c in disk]
        return {"d": region.d, "kind": "cylinder", "disk_cells": disk_cells, "height": height}
    return {"d": region.d, "kind": "general", "cells": [list(c) for c in region.cells]}


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
