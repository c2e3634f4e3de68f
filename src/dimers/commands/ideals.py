"""`dimers ideals export`: flip-ideal and tiling-ideal generators, written
to a text file."""
from __future__ import annotations

from ..regions import region_to_record
from . import add_region_flags, region_from_args


def _ideals_export_arguments(p):
    add_region_flags(p)
    p.add_argument("--out")
    p.add_argument("--with-tiling-ideal", action="store_true")
    p.add_argument("--cap", type=int, default=100_000)


def _ideals_arguments(p):
    sub = p.add_subparsers(dest="ideals_command", required=True)
    _ideals_export_arguments(sub.add_parser("export"))


def _cmd_ideals(args) -> dict:
    from ..ideals import export_ideals

    region = region_from_args(args)
    out = args.out or "ideals.txt"
    export_ideals(region, out, with_tiling_ideal=args.with_tiling_ideal, cap=args.cap)
    print(f"ideal generators -> {out}")
    return {"out": str(out), "region": region_to_record(region)}


COMMANDS = {"ideals": (_ideals_arguments, _cmd_ideals)}
