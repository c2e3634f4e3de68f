"""`dimers slab census` and `slab twist`: slab tilings and their triple
twist."""
from __future__ import annotations

from ..errors import InflationError
from ..regions import make_box, region_to_record
from . import add_region_flags, open_matching, parse_dims, region_from_args, tally


def _slab_census_arguments(p):
    add_region_flags(p)
    p.add_argument("--cap", type=int, default=1_000_000)


def _slab_twist_arguments(p):
    p.add_argument("--tiling", required=True, help="slab JSONL file")
    p.add_argument("--box", type=parse_dims)


def _slab_arguments(p):
    sub = p.add_subparsers(dest="slab_command", required=True)
    _slab_census_arguments(sub.add_parser("census", help="slab flip components + triple twists"))
    _slab_twist_arguments(sub.add_parser("twist", help="triple twist of slab tilings from a file"))


def _triple_text(triple) -> str:
    return ",".join(map(str, triple))


def _cmd_slab(args) -> dict:
    from ..slab import slab_flip_components, slab_tiling_from_record, triple_twist

    if args.slab_command == "census":
        region = region_from_args(args)
        components = slab_flip_components(region, args.cap)
        census = []  # per component: off boxes, some tilings have no triple twist
        for component in components:
            triples, undefined = set(), 0
            for tiling in component:
                try:
                    triples.add(triple_twist(tiling))
                except InflationError:
                    undefined += 1
            census.append({"size": len(component), "triple_twists": sorted(triples),
                           "undefined": undefined})
        total = sum(map(len, components))
        undefined = [c["undefined"] for c in census if c["undefined"]]
        print(f"slab tilings: {total}")
        print(f"flip components: {len(components)}")
        triples = set().union(*(c["triple_twists"] for c in census))
        print("triple twists: " + "; ".join(map(str, sorted(triples))))
        if undefined:
            n, k = sum(undefined), len(undefined)
            print(f"undefined triple twists: {n} tiling{'s' * (n > 1)} "
                  f"in {k} component{'s' * (k > 1)}")
        return {
            "slab_tilings": total,
            "components": len(components),
            "twists_by_component": census,
            "region": region_to_record(region),
        }
    # slab twist --tiling FILE
    region = make_box(args.box) if args.box else None
    with open_matching(args, region, slab_tiling_from_record) as (file_region, slab_tilings):
        values = [triple_twist(t) for t in slab_tilings]
    for v in values:
        print(_triple_text(v))
    return {"triple_twists": tally(values, _triple_text),
            "region": region_to_record(file_region)}


COMMANDS = {"slab": (_slab_arguments, _cmd_slab)}
