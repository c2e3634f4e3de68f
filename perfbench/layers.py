"""The layers the traced run measures, and the per-layer metrics.

The layers are the package's nine modules.  TRACED names the public
functions wrapped in each; every one of them reports `<name>.calls` and
`<name>.self_s`.  A generator's calls are the generators created, and its
self time is the time spent inside `next()`.  The counters below are read
where the work happens: from a function's return value, or from the items
a generator yields.
"""
from __future__ import annotations

EXTENDED_JOB = "extended-2x3x4"
# tilings of the opt-in 4x4x4 census (acceptance criterion 03)
CENSUS_444_TILINGS = 5_051_532_105


def _count_len(counter):
    def hook(tracer, args, kwargs, result):
        tracer.count(counter, len(result))

    return hook


def _histogram_steps(tracer, args, kwargs, result):
    tracer.count("sample.steps", result.meta["burn_in"] + result.n_samples * result.meta["thinning"])


def _chain_steps(tracer, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    tracer.count("sample.steps", config.steps)


def _remember_region(tracer, args, kwargs, result):
    tracer.seen.setdefault("count_region", []).append(args[0] if args else kwargs["region"])


def _automaton_plugs(tracer, args, kwargs, result):
    tracer.count("counting.automaton_plugs", len(result.plugs))


TRACED: dict[str, dict] = {
    # parsing, printing and the manifest; moves setup_s everywhere
    "cli.main": {},
    # encode as a census key (census) and file I/O (stream)
    "core.encode": {},
    "core.write_tilings": {},
    "core.read_tilings": {},
    "core.make_box": {},
    "core.make_cylinder": {},
    # the profile DP and the plug automaton (count); count_cylinder's self
    # time is the matrix powering
    "counting.count_region": {"on_result": _remember_region},
    "counting.count_cylinder": {},
    "counting.build_automaton": {"on_result": _automaton_plugs},
    # enumeration and the censuses (census, stream)
    "explore.enumerate_tilings": {"items_counter": "explore.tilings_enumerated"},
    "explore.component_trit_graph": {},
    "explore.twist_census": {},
    "explore.flip_free_tilings": {},
    "explore.iter_free_simply_connected_polyominoes": {"items_counter": "explore.shapes_checked"},
    "explore.flip_connected_2d": {},
    "explore.flip_components_extended": {},
    # move listing and application (census); the sampler has its own tables
    "moves.list_flips": {"on_result": _count_len("moves.flips_listed")},
    "moves.apply_flip": {},
    "moves.list_trits": {"on_result": _count_len("moves.trits_listed")},
    # calibration moves setup_s; twist and the determinant move census/stream
    "twist.calibration": {},
    "twist.twist": {},
    "twist.pfaffian_alternating_sum": {},
    # the chain (sample only)
    "sample.twist_distribution": {"on_result": _histogram_steps},
    "sample.mcmc_run": {"on_result": _chain_steps},
    # the slab census ROADMAP item 4 moves into slab.py
    "slab.enumerate_slab_tilings": {},
    "slab.triple_twist": {},
    "ideals.export_ideals": {},
}

DERIVED: list[tuple[str, str]] = [
    ("core.encode.calls_per_tiling", "ratio"),
    ("counting.profile_width", "cells"),
    ("counting.automaton_plugs", "count"),
    ("explore.tilings_enumerated", "count"),
    ("explore.shapes_checked", "count"),
    ("explore.extended_us_per_tiling", "us"),
    ("explore.extended_4x4x4_projected_h", "h"),
    ("moves.flips_listed", "count"),
    ("moves.trits_listed", "count"),
    ("sample.steps", "count"),
    ("trace.overhead_ratio", "ratio"),
]

PER_LAYER: list[tuple[str, str]] = [
    (f"{name}.{field}", unit)
    for name in TRACED
    for field, unit in (("calls", "count"), ("self_s", "s"))
] + DERIVED


def per_layer_metrics(untraced: dict, traced: dict, tilings_of: dict[str, int]) -> dict:
    """Per-layer values from one untraced and one traced in-process pass.

    The extended-census projection uses the untraced pass, so tracer
    overhead does not inflate it.
    """
    trace = traced["trace"]
    values: dict[str, float] = {}
    for name in TRACED:
        values[f"{name}.calls"] = trace["calls"].get(name, 0)
        values[f"{name}.self_s"] = trace["self_s"].get(name, 0.0)
    counters = trace["counters"]
    for name, _unit in DERIVED:
        values[name] = counters.get(name, 0)
    enumerated = counters.get("explore.tilings_enumerated", 0)
    values["core.encode.calls_per_tiling"] = (
        values["core.encode.calls"] / enumerated if enumerated else 0.0
    )
    values["counting.profile_width"] = traced["profile_width"]
    job_seconds = {job["name"]: job["seconds"] for job in untraced["jobs"]}
    if EXTENDED_JOB in job_seconds:
        us = job_seconds[EXTENDED_JOB] / tilings_of[EXTENDED_JOB] * 1e6
        values["explore.extended_us_per_tiling"] = us
        values["explore.extended_4x4x4_projected_h"] = us * CENSUS_444_TILINGS / 3.6e9
    values["trace.overhead_ratio"] = sum(job["seconds"] for job in traced["jobs"]) / sum(
        job["seconds"] for job in untraced["jobs"]
    )
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
