"""`dimers render`: the floor diagram of each tiling of a file."""
from __future__ import annotations

from ..core import render_floors
from ..regions import region_to_record
from . import add_region_flags, region_from_args, tilings_from_arg


def _render_arguments(p):
    add_region_flags(p)
    p.add_argument("--tiling", default="base", help="JSONL file or 'base'")


def _cmd_render(args) -> dict:
    region = region_from_args(args)
    blocks = [render_floors(t) for t in tilings_from_arg(args, region)]
    print(*blocks, sep="\n===\n", end="")
    return {"rendered": len(blocks), "region": region_to_record(region)}


COMMANDS = {"render": (_render_arguments, _cmd_render)}
