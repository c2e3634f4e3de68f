"""The subcommands of the `dimers` command, and the helpers they share.

Each module here runs the subcommands that drive one library module, and
its COMMANDS maps each subcommand's name to (argument builder, handler).
A handler prints the subcommand's output and returns the manifest's
fields beside the common ones.  `cli` imports only the module of the
subcommand that runs.  No module here imports `dimers.cli`: under
`python -m dimers.cli` that module is `__main__`, and importing it by
name would compile and run it a second time.

`twist`, `render` and `slab twist` read their --tiling file one line at a
time: the header's region is checked against --box/--disk first, and
each tiling is twisted or rendered as it is read.  Only the per-line
results are kept, and printed once every line has been read, so a bad
line leaves stdout empty; the first failing line in file order is the
one reported.
"""
from __future__ import annotations

import argparse
from collections import Counter
from contextlib import contextmanager

from ..errors import DecodeError, DimersError
from ..regions import (
    json_record,
    make_box,
    make_cylinder,
    make_region,
    open_text,
    region_from_record,
)


def parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad box spec {text!r}")
    if len(dims) < 2:
        raise argparse.ArgumentTypeError("a box needs at least two dimensions")
    return dims


def add_region_flags(parser):
    parser.add_argument("--box", type=parse_dims, help="box dims, e.g. 3,3,2")
    parser.add_argument("--disk", help="disk file (#/. grid or JSON record)")
    parser.add_argument("--height", type=int, help="cylinder height over --disk")


def load_disk(path: str):
    """Disk file: one row of #/. characters per line, or a JSON region
    record on a first line that starts with '{'.  Any other row is a
    DecodeError naming the file and line, and so is a grid without a '#'
    cell (an empty file, blank lines only, or all '.')."""
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    rows = [(n, row) for n, row in enumerate(lines, 1) if row.strip()]
    if rows and rows[0][1].lstrip().startswith("{"):
        lineno, first = rows[0]
        return json_record(first, path, lineno, region_from_record)
    for lineno, row in rows:
        if row.strip("#."):
            raise DecodeError(f"{path} line {lineno}: not a disk row of '#' and '.'")
    cells = []
    for r, (_, row) in enumerate(reversed(rows)):
        for c, ch in enumerate(row):
            if ch == "#":
                cells.append((c, r))
    if not cells:
        raise DecodeError(f"{path}: disk has no '#' cell")
    return make_region(cells, d=2)


def region_from_args(args) -> object:
    if args.box:
        if args.disk is not None:
            raise DimersError("give --box or --disk, not both")
        if args.height is not None:
            raise DimersError("--height applies to --disk only")
        return make_box(args.box)
    if args.disk:
        disk = load_disk(args.disk)
        if args.height is not None:
            return make_cylinder(disk, args.height)
        return disk
    raise DimersError("no region given; use --box or --disk")


def tally(values, key=str) -> dict:
    """{key(value): how many values equal it}, in increasing value: what
    a manifest records of a file's per-tiling results."""
    return {key(value): n for value, n in sorted(Counter(values).items())}


@contextmanager
def open_matching(args, region, decode=None):
    """core.open_records(args.tiling, decode), refused before any line is
    read when region is given and the file's differs; the refusal names
    the region flag given."""
    from ..core import open_records

    with open_records(args.tiling, decode) as (file_region, items):
        if region is not None and file_region != region:
            flag = "--disk" if getattr(args, "disk", None) else "--box"
            raise DimersError(f"tiling file region disagrees with {flag}")
        yield file_region, items


def tilings_from_arg(args, region):
    """The tilings --tiling names, one at a time: the base tiling, or
    each line of the file as it is read."""
    if args.tiling == "base":
        from ..core import base_vertical_tiling

        yield base_vertical_tiling(region)
        return
    with open_matching(args, region) as (_, tilings):
        yield from tilings
