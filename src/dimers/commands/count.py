"""`dimers count`: the exact tiling count of a region."""
from __future__ import annotations

from ..errors import DimersError
from ..regions import region_to_record
from . import add_region_flags, region_from_args


def _count_arguments(p):
    add_region_flags(p)
    p.add_argument("--formula", action="store_true", help="2D product formula")


def _cmd_count(args) -> dict:
    from ..counting import count_rect_2d_formula, count_region

    region = region_from_args(args)
    if args.formula:
        if region.kind != "box" or region.d != 2:
            raise DimersError("--formula needs --box M,N")
        value = count_rect_2d_formula(*region.dims)
        print(value)
        return {"formula_value": value, "region": region_to_record(region)}
    value = count_region(region)
    print(value)
    return {"count": str(value), "region": region_to_record(region)}


COMMANDS = {"count": (_count_arguments, _cmd_count)}
