"""`dimers enumerate`, `components`, `flipfree` and `census`: the
subcommands that enumerate tilings or census them.  Each writes its
--out file before it prints, so a file that cannot be written leaves
stdout empty."""
from __future__ import annotations

from ..errors import DimersError
from ..regions import region_to_record
from . import add_region_flags, region_from_args


def _cap_and_out_arguments(p):
    add_region_flags(p)
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--out")


def _components_arguments(p):
    add_region_flags(p)
    # None so that --cap beside --extended is refused; the in-memory
    # census still caps at explore.DEFAULT_CAP
    p.add_argument("--cap", type=int)
    p.add_argument("--extended", action="store_true", help="disk-backed visited set")
    p.add_argument("--scratch", help="scratch dir for --extended")
    p.add_argument("--out", help="census CSV path")


def _census_arguments(p):
    add_region_flags(p)
    p.add_argument("--out", help="CSV path")


def _cmd_enumerate(args) -> dict:
    from ..core import write_tilings
    from ..explore import enumerate_tilings

    region = region_from_args(args)
    out = args.out or "tilings.jsonl"
    n = write_tilings(out, region, enumerate_tilings(region, args.cap))
    print(f"{n} tilings -> {out}")
    return {"tilings": n, "out": str(out), "region": region_to_record(region)}


def _cmd_components(args) -> dict:
    from ..explore import DEFAULT_CAP, census_csv, flip_components, flip_components_extended

    if args.extended and args.out:
        raise DimersError("--out applies to an in-memory census, not --extended")
    if args.extended and args.cap is not None:
        raise DimersError("--cap applies to an in-memory census, not --extended")
    if args.scratch is not None and not args.extended:
        raise DimersError("--scratch applies to --extended only")
    region = region_from_args(args)
    if args.out and region.d != 3:
        raise DimersError("--out writes each component's twist, which is defined for d=3 only")
    if args.extended:
        census = flip_components_extended(region, args.scratch or ".")
    else:
        census = flip_components(region, DEFAULT_CAP if args.cap is None else args.cap)
    if args.out:
        census_csv(census, args.out)
    sizes = census.sizes
    print(f"tilings: {census.total}")
    print(f"components: {len(sizes)}")
    print("sizes: " + ", ".join(map(str, sizes)))
    return {
        "tilings": str(census.total),
        "components": len(sizes),
        "region": region_to_record(region),
    }


def _cmd_flipfree(args) -> dict:
    from ..core import encode, require_encodable, write_tilings
    from ..explore import flip_free_tilings

    region = region_from_args(args)
    require_encodable(region)  # each tiling prints as its encoding
    found = flip_free_tilings(region, args.cap)
    if args.out:
        write_tilings(args.out, region, found)
    print(f"flip-free tilings: {len(found)}")
    for t in found:
        print(encode(t).hex())
    return {"flip_free": len(found), "region": region_to_record(region)}


def _cmd_census(args) -> dict:
    from ..explore import twist_census

    region = region_from_args(args)
    counts = twist_census(region)
    if args.out:
        from ..sample import TwistHistogram, histogram_csv

        histogram_csv(TwistHistogram(counts), args.out)
    for value, count in counts.items():
        print(f"{value},{count}")
    return {
        "census": {str(k): str(v) for k, v in counts.items()},
        "region": region_to_record(region),
    }


COMMANDS = {
    "enumerate": (_cap_and_out_arguments, _cmd_enumerate),
    "components": (_components_arguments, _cmd_components),
    "flipfree": (_cap_and_out_arguments, _cmd_flipfree),
    "census": (_census_arguments, _cmd_census),
}
