"""`dimers twist` and `pfaffian`: the twist of each tiling of a file, and
the Kasteleyn alternating-sum determinant of a region."""
from __future__ import annotations

import sys

from ..regions import region_to_record
from . import add_region_flags, region_from_args, tally, tilings_from_arg


def _twist_arguments(p):
    add_region_flags(p)
    p.add_argument("--tiling", required=True, help="JSONL file or 'base'")


def _cmd_twist(args) -> dict:
    from ..twist import twist

    region = region_from_args(args)
    values = [twist(t) for t in tilings_from_arg(args, region)]
    sys.stdout.write("".join(f"{value}\n" for value in values))
    return {"twists": tally(values), "region": region_to_record(region)}


def _cmd_pfaffian(args) -> dict:
    from ..twist import pfaffian_alternating_sum

    region = region_from_args(args)
    value = pfaffian_alternating_sum(region)
    print(value)
    return {"pfaffian": str(value), "region": region_to_record(region)}


COMMANDS = {
    "twist": (_twist_arguments, _cmd_twist),
    "pfaffian": (add_region_flags, _cmd_pfaffian),
}
