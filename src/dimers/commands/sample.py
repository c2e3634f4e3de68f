"""`dimers sample`: a seeded Metropolis chain, run for a twist histogram
or for its final state."""
from __future__ import annotations

from pathlib import Path

from ..errors import DimersError
from ..regions import region_to_record
from . import add_region_flags, region_from_args

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


def _sample_arguments(p):
    add_region_flags(p)
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


def _cmd_sample(args) -> dict:
    from ..core import base_vertical_tiling, write_tilings
    from ..sample import ChainConfig, histogram_csv, histogram_svg, mcmc_run, twist_distribution

    _check_sample_flags(args)
    region = region_from_args(args)
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


COMMANDS = {"sample": (_sample_arguments, _cmd_sample)}
