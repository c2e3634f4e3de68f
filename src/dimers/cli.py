"""Command-line surface.

Subcommands: count, enumerate, components, flipfree, census, twist,
pfaffian, sample, slab, ideals, render.  Every run writes a JSON manifest
(command, region, seeds, calibration ids, wall time) so outputs can be
reproduced bit for bit.  Exit codes: 2 usage, 3 caps and guards,
4 a twist that is not an integer or a trit step other than +-1.

The module itself imports only what every run uses: argparse, json, the
region builders of `core` and the errors.  Each handler imports the
modules it runs, so a launch loads only its subcommand's: a `count` loads
the profile DP but never the twist, moves or enumeration modules, the
sampler, slabs, ideals, fractions, csv or sqlite3; the manifest's
calibration constants are a literal here.  Every subcommand is registered
by name and help, but its parser and arguments are built only when it
runs (or prints its help).

`twist`, `render` and `slab twist` read their --tiling file one line at a
time: the header's region is checked against --box/--disk first, and
each tiling is twisted or rendered as it is read.  Only the per-line
results are kept, and printed once every line has been read, so a bad
line leaves stdout empty; the first failing line in file order is the
one reported.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .core import (
    base_vertical_tiling,
    make_box,
    make_cylinder,
    make_region,
    open_records,
    open_text,
    region_to_record,
    render_floors,
    write_tilings,
)
from .errors import (
    CalibrationError,
    CapExceeded,
    DecodeError,
    DimersError,
    InflationError,
    WidthGuardExceeded,
)

EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_CALIBRATION = 4


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad box spec {text!r}")
    if len(dims) < 2:
        raise argparse.ArgumentTypeError("a box needs at least two dimensions")
    return dims


def _load_disk(path: str):
    """Disk file: one row of #/. characters per line, or a JSON region
    record on a first line that starts with '{'.  Any other row is a
    DecodeError naming the file and line, and so is a grid without a '#'
    cell (an empty file, blank lines only, or all '.')."""
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    rows = [(n, row) for n, row in enumerate(lines, 1) if row.strip()]
    if rows and rows[0][1].lstrip().startswith("{"):
        from .core import json_record, region_from_record

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


# flags that only one mode of `sample` reads: the twist histogram
# (--histogram, --svg) or the final state (--out)
_HISTOGRAM_FLAGS = ("samples", "workers", "burn_in")
_FINAL_STATE_FLAGS = ("steps", "out")


def _check_sample_flags(args) -> None:
    histogram = args.histogram or args.svg
    for name in _FINAL_STATE_FLAGS if histogram else _HISTOGRAM_FLAGS:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            if histogram:
                raise DimersError(f"{flag} applies to a final-state run, not --histogram or --svg")
            raise DimersError(f"{flag} applies to --histogram or --svg only")


def _region_from_args(args) -> object:
    if args.box:
        if args.height is not None:
            raise DimersError("--height applies to --disk only")
        return make_box(args.box)
    if args.disk:
        disk = _load_disk(args.disk)
        if args.height is not None:
            return make_cylinder(disk, args.height)
        return disk
    raise DimersError("no region given; use --box or --disk")


def _manifest_path(value: str | None) -> Path:
    """The manifest's path, refused before any work when it names no file
    that can be written."""
    if value == "":
        raise DimersError("--manifest needs a file path")
    path = Path(value or "run_manifest.json")
    if path.is_dir():
        raise DimersError(f"--manifest {path}: is a directory")
    if not path.parent.is_dir():
        raise DimersError(f"--manifest {path}: {path.parent} is not a directory")
    return path


# twist.calibration().as_dict(), written out so that writing a manifest
# loads no twist module (a test pins the two equal)
_CALIBRATION = {"kappa": "1/8", "sign": 1, "kasteleyn_rule": "x:+1 y:(-1)^x z:(-1)^(x+y)"}


def _write_manifest(path: Path, args, extra: dict, started: float) -> None:
    record = {
        "command": args.command,
        "argv": sys.argv[1:],
        "version": __version__,
        "region": extra.pop("region", None),
        "seed": getattr(args, "seed", None),
        "calibration": _CALIBRATION,
        "wall_time_s": round(time.time() - started, 3),
    }
    record.update(extra)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def _tally(values, key=str) -> dict:
    """{key(value): how many values equal it}, in increasing value: what
    a manifest records of a file's per-tiling results."""
    return {key(value): n for value, n in sorted(Counter(values).items())}


@contextmanager
def _open_matching(args, region, decode=None):
    """open_records(args.tiling, decode), refused before any line is read
    when region is given and the file's differs; the refusal names the
    region flag given."""
    with open_records(args.tiling, decode) as (file_region, items):
        if region is not None and file_region != region:
            flag = "--disk" if getattr(args, "disk", None) else "--box"
            raise DimersError(f"tiling file region disagrees with {flag}")
        yield file_region, items


def _tilings_from_arg(args, region):
    """The tilings --tiling names, one at a time: the base tiling, or
    each line of the file as it is read."""
    if args.tiling == "base":
        yield base_vertical_tiling(region)
        return
    with _open_matching(args, region) as (_, tilings):
        yield from tilings


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_count(args) -> dict:
    from .counting import count_rect_2d_formula, count_region

    region = _region_from_args(args)
    if args.formula:
        if region.kind != "box" or region.d != 2:
            raise DimersError("--formula needs --box M,N")
        value = count_rect_2d_formula(*region.dims)
        print(value)
        return {"formula_value": value, "region": region_to_record(region)}
    value = count_region(region)
    print(value)
    return {"count": str(value), "region": region_to_record(region)}


def _cmd_enumerate(args) -> dict:
    from .explore import enumerate_tilings

    region = _region_from_args(args)
    out = args.out or "tilings.jsonl"
    n = write_tilings(out, region, enumerate_tilings(region, args.cap))
    print(f"{n} tilings -> {out}")
    return {"tilings": n, "out": str(out), "region": region_to_record(region)}


def _cmd_components(args) -> dict:
    from .explore import census_csv, flip_components, flip_components_extended

    if args.extended and args.out:
        raise DimersError("--out applies to an in-memory census, not --extended")
    if args.scratch is not None and not args.extended:
        raise DimersError("--scratch applies to --extended only")
    region = _region_from_args(args)
    if args.out and region.d != 3:
        raise DimersError("--out writes each component's twist, which is defined for d=3 only")
    if args.extended:
        census = flip_components_extended(region, args.scratch or ".")
    else:
        census = flip_components(region, args.cap)
    sizes = census.sizes
    print(f"tilings: {census.total}")
    print(f"components: {len(sizes)}")
    print("sizes: " + ", ".join(map(str, sizes)))
    if args.out:
        census_csv(census, args.out)
    return {
        "tilings": str(census.total),
        "components": len(sizes),
        "region": region_to_record(region),
    }


def _cmd_flipfree(args) -> dict:
    from .core import encode
    from .explore import flip_free_tilings

    region = _region_from_args(args)
    found = flip_free_tilings(region, args.cap)
    print(f"flip-free tilings: {len(found)}")
    for t in found:
        print(encode(t).hex())
    if args.out:
        write_tilings(args.out, region, found)
    return {"flip_free": len(found), "region": region_to_record(region)}


def _cmd_census(args) -> dict:
    from .explore import twist_census

    region = _region_from_args(args)
    counts = twist_census(region)
    for value, count in counts.items():
        print(f"{value},{count}")
    if args.out:
        from .sample import TwistHistogram, histogram_csv

        histogram_csv(TwistHistogram(counts), args.out)
    return {
        "census": {str(k): str(v) for k, v in counts.items()},
        "region": region_to_record(region),
    }


def _cmd_twist(args) -> dict:
    from .twist import twist

    region = _region_from_args(args)
    values = [twist(t) for t in _tilings_from_arg(args, region)]
    sys.stdout.write("".join(f"{value}\n" for value in values))
    return {"twists": _tally(values), "region": region_to_record(region)}


def _cmd_pfaffian(args) -> dict:
    from .twist import pfaffian_alternating_sum

    region = _region_from_args(args)
    value = pfaffian_alternating_sum(region)
    print(value)
    return {"pfaffian": str(value), "region": region_to_record(region)}


def _cmd_sample(args) -> dict:
    from .sample import ChainConfig, histogram_csv, histogram_svg, mcmc_run, twist_distribution

    _check_sample_flags(args)
    region = _region_from_args(args)
    if args.histogram or args.svg:
        config = ChainConfig(moves=args.moves, seed=args.seed, burn_in=args.burn_in)
        hist = twist_distribution(
            region,
            config,
            10_000 if args.samples is None else args.samples,
            chains=1 if args.workers is None else args.workers,
        )
        if args.histogram:
            histogram_csv(hist, args.histogram)
        if args.svg:
            Path(args.svg).write_text(histogram_svg(hist), encoding="utf-8")
        mean, var, skew, kurt = hist.moments
        print(
            f"samples: {hist.n_samples} mean: {mean:.4f} variance: {var:.4f} "
            f"skewness: {skew:.4f} excess_kurtosis: {kurt:.4f}"
        )
        return {
            "histogram": {str(k): v for k, v in hist.counts.items()},
            "meta": hist.meta,
            "region": region_to_record(region),
        }
    config = ChainConfig(
        moves=args.moves, steps=100_000 if args.steps is None else args.steps, seed=args.seed
    )
    start = base_vertical_tiling(region)
    final = mcmc_run(region, start, config)
    out = args.out or "sampled.jsonl"
    write_tilings(out, region, [final])
    print(f"final state -> {out}")
    return {"out": str(out), "region": region_to_record(region)}


def _triple_text(triple) -> str:
    return ",".join(map(str, triple))


def _cmd_slab(args) -> dict:
    from .slab import slab_flip_components, slab_tiling_from_record, triple_twist

    if args.slab_command == "census":
        region = _region_from_args(args)
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
    with _open_matching(args, region, slab_tiling_from_record) as (file_region, slab_tilings):
        values = [triple_twist(t) for t in slab_tilings]
    for v in values:
        print(_triple_text(v))
    return {"triple_twists": _tally(values, _triple_text),
            "region": region_to_record(file_region)}


def _cmd_ideals(args) -> dict:
    from .ideals import export_ideals

    region = _region_from_args(args)
    out = args.out or "ideals.txt"
    export_ideals(region, out, with_tiling_ideal=args.with_tiling_ideal, cap=args.cap)
    print(f"ideal generators -> {out}")
    return {"out": str(out), "region": region_to_record(region)}


def _cmd_render(args) -> dict:
    region = _region_from_args(args)
    blocks = [render_floors(t) for t in _tilings_from_arg(args, region)]
    print(*blocks, sep="\n===\n", end="")
    return {"rendered": len(blocks), "region": region_to_record(region)}


# ---------------------------------------------------------------------------


class _Subcommand:
    """A subcommand's parser, built with its arguments the first time it
    parses (or prints its help), so that a launch builds only the parser
    of the subcommand that runs.  `add_subparsers(parser_class=...)`
    creates one per subcommand name; argparse calls nothing of it but
    parse_known_args."""

    def __init__(self, add_arguments, **kwargs):
        self._add_arguments = add_arguments
        self._kwargs = kwargs
        self._parser = None

    def parse_known_args(self, args=None, namespace=None):
        if self._parser is None:
            self._parser = argparse.ArgumentParser(**self._kwargs)
            self._add_arguments(self._parser)
        return self._parser.parse_known_args(args, namespace)


def _add_region_flags(parser):
    parser.add_argument("--box", type=_parse_dims, help="box dims, e.g. 3,3,2")
    parser.add_argument("--disk", help="disk file (#/. grid or JSON record)")
    parser.add_argument("--height", type=int, help="cylinder height over --disk")


def _count_arguments(p):
    _add_region_flags(p)
    p.add_argument("--formula", action="store_true", help="2D product formula")


def _cap_and_out_arguments(p):
    _add_region_flags(p)
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--out")


def _components_arguments(p):
    _add_region_flags(p)
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--extended", action="store_true", help="disk-backed visited set")
    p.add_argument("--scratch", help="scratch dir for --extended")
    p.add_argument("--out", help="census CSV path")


def _census_arguments(p):
    _add_region_flags(p)
    p.add_argument("--out", help="CSV path")


def _twist_arguments(p):
    _add_region_flags(p)
    p.add_argument("--tiling", required=True, help="JSONL file or 'base'")


def _sample_arguments(p):
    _add_region_flags(p)
    p.add_argument("--moves", default="flips", choices=["flips", "flips+trits"])
    p.add_argument("--steps", type=int, help="proposals of a final-state run (default 100000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", dest="burn_in", type=int,
                   help="histogram burn-in (default 100 x the cell count)")
    p.add_argument("--samples", type=int, help="histogram samples (default 10000)")
    p.add_argument("--workers", type=int, help="independent histogram chains (default 1)")
    p.add_argument("--histogram", help="write twist histogram CSV")
    p.add_argument("--svg", help="write static SVG bar plot")
    p.add_argument("--out", help="final-state JSONL path (default sampled.jsonl)")


def _slab_census_arguments(p):
    _add_region_flags(p)
    p.add_argument("--cap", type=int, default=1_000_000)


def _slab_twist_arguments(p):
    p.add_argument("--tiling", required=True, help="slab JSONL file")
    p.add_argument("--box", type=_parse_dims)


def _slab_arguments(p):
    sub = p.add_subparsers(dest="slab_command", required=True, parser_class=_Subcommand)
    sub.add_parser("census", help="slab flip components + triple twists",
                   add_arguments=_slab_census_arguments)
    sub.add_parser("twist", help="triple twist of slab tilings from a file",
                   add_arguments=_slab_twist_arguments)


def _ideals_export_arguments(p):
    _add_region_flags(p)
    p.add_argument("--out")
    p.add_argument("--with-tiling-ideal", action="store_true")
    p.add_argument("--cap", type=int, default=100_000)


def _ideals_arguments(p):
    sub = p.add_subparsers(dest="ideals_command", required=True, parser_class=_Subcommand)
    sub.add_parser("export", add_arguments=_ideals_export_arguments)


def _render_arguments(p):
    _add_region_flags(p)
    p.add_argument("--tiling", default="base", help="JSONL file or 'base'")


# name, help and argument builder of each subcommand, in usage order
_SUBCOMMANDS = (
    ("count", "exact tiling count", _count_arguments),
    ("enumerate", "write every tiling to a JSONL file", _cap_and_out_arguments),
    ("components", "flip component census", _components_arguments),
    ("flipfree", "tilings with no flips", _cap_and_out_arguments),
    ("census", "tiling count per twist value", _census_arguments),
    ("twist", "twist of tilings from a file", _twist_arguments),
    ("pfaffian", "Kasteleyn alternating-sum determinant", _add_region_flags),
    ("sample", "MCMC sampling", _sample_arguments),
    ("slab", "slab tilings and the triple twist", _slab_arguments),
    ("ideals", "export flip/tiling ideal generators", _ideals_arguments),
    ("render", "floor diagram of tilings", _render_arguments),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimers",
        description="domino tilings of boxes: exact counts, moves, twist",
    )
    parser.add_argument("--manifest", help="manifest path (default run_manifest.json)")
    parser.add_argument("--config", help="key=value config file; flags win")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_text, add_arguments in _SUBCOMMANDS:
        sub.add_parser(name, help=help_text, add_arguments=add_arguments)
    return parser


_HANDLERS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "components": _cmd_components,
    "flipfree": _cmd_flipfree,
    "census": _cmd_census,
    "twist": _cmd_twist,
    "pfaffian": _cmd_pfaffian,
    "sample": _cmd_sample,
    "slab": _cmd_slab,
    "ideals": _cmd_ideals,
    "render": _cmd_render,
}


def _apply_config(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config as flags; explicit flags win
    because argparse takes the last occurrence."""
    for at, token in enumerate(argv):
        if token == "--config":
            at += 1
            path = argv[at] if at < len(argv) else ""
            break
        if token.startswith("--config="):
            path = token.partition("=")[2]
            break
    else:
        return argv
    if not path:
        raise DimersError("--config needs a file path")
    extra = []
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        extra.append(f"--{key.strip()}")
        if value.strip():
            extra.append(value.strip())
    head = argv[: at + 1]
    tail = argv[at + 1 :]
    if tail and not tail[0].startswith("-"):
        # insert config flags after the subcommand word
        return head + [tail[0]] + extra + tail[1:]
    return head + extra + tail


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config(argv))
        manifest = _manifest_path(args.manifest)
        started = time.time()
        extra = _HANDLERS[args.command](args)
        _write_manifest(manifest, args, extra, started)
    except (CapExceeded, WidthGuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (DimersError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
