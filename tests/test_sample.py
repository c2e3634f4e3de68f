import random
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from dimers.core import (
    Tiling,
    base_vertical_tiling,
    decode,
    encode,
    make_box,
    make_cylinder,
    make_region,
    matched,
    validate,
)
from dimers.errors import InvalidRegion, InvalidTiling
from dimers.explore import enumerate_tilings, flip_free_tilings, twist_census
from dimers.moves import apply_trit, list_trits, trit_windows
from dimers.sample import (
    ChainConfig,
    TwistHistogram,
    _Chain,
    histogram_csv,
    histogram_svg,
    mcmc_run,
    twist_distribution,
)
from dimers.twist import twist
from oracles import chain_by_steps


def _l_cylinder(height):
    disk = make_region([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2), (1, 2)])
    return make_cylinder(disk, height)


def test_chain_config_validation():
    with pytest.raises(InvalidRegion):
        ChainConfig(moves="jumps", steps=10)
    with pytest.raises(InvalidRegion, match="steps must be >= 0"):
        ChainConfig(moves="flips", steps=-1)
    with pytest.raises(InvalidRegion, match="burn-in must be >= 0"):
        ChainConfig(moves="flips", steps=5, burn_in=-1)
    # burn-in and steps are separate lengths, so burn-in may exceed steps
    assert ChainConfig(moves="flips", steps=5, burn_in=6).burn_in == 6
    # _replace skips the checks; the copy each histogram chain runs makes them
    unchecked = ChainConfig(moves="flips", seed=1)._replace(moves="jumps")
    with pytest.raises(InvalidRegion, match="unknown move set 'jumps'"):
        twist_distribution(make_box((2, 2, 2)), unchecked, samples=2)


def test_zero_burn_in_is_recorded_and_none_means_the_default():
    region = make_box((2, 2, 2))
    config = ChainConfig(moves="flips", seed=1, burn_in=0)
    assert twist_distribution(region, config, samples=5).meta["burn_in"] == 0
    default = twist_distribution(region, ChainConfig(moves="flips", seed=1), samples=5)
    assert default.meta["burn_in"] == 100 * region.n_cells


def test_zero_steps_returns_start():
    region = make_box((2, 2, 2))
    start = base_vertical_tiling(region)
    assert mcmc_run(region, start, ChainConfig(moves="flips", steps=0)) == start


def test_a_final_state_run_refuses_a_burn_in():
    # it would be ignored: the chain makes config.steps proposals, no more
    region = make_box((3, 3, 2))
    start = base_vertical_tiling(region)
    with pytest.raises(InvalidRegion, match="^a final state is sized by steps; burn-in must be 0, got 1000$"):
        mcmc_run(region, start, ChainConfig(moves="flips", steps=50, seed=3, burn_in=1000))
    config = ChainConfig(moves="flips", steps=50, seed=3)
    final = mcmc_run(region, start, config)
    assert mcmc_run(region, start, config._replace(burn_in=0)) == final


def test_mcmc_rejects_invalid_start():
    region = make_box((2, 2, 2))
    other = base_vertical_tiling(make_box((2, 2, 4)))
    with pytest.raises(InvalidTiling):
        mcmc_run(region, other, ChainConfig(moves="flips", steps=1))


def test_seed_determinism():
    region = make_box((3, 3, 2))
    start = base_vertical_tiling(region)
    config = ChainConfig(moves="flips+trits", steps=5_000, seed=11)
    a = mcmc_run(region, start, config)
    b = mcmc_run(region, start, config)
    assert a == b
    c = mcmc_run(region, start, ChainConfig(moves="flips+trits", steps=5_000, seed=12))
    assert validate(c) is None


def test_visited_states_stay_valid_and_in_component():
    region = make_box((2, 2, 2))
    start = base_vertical_tiling(region)
    chain = _Chain(region, start, ChainConfig(moves="flips", steps=0, seed=3))
    reachable = {encode(t) for t in enumerate_tilings(region)}
    for _ in range(500):
        chain.advance(1)
        t = chain.tiling()
        assert validate(t) is None
        assert encode(t) in reachable


def test_flips_only_chain_is_stuck_on_flip_free_start():
    region = make_box((3, 3, 2))
    start = flip_free_tilings(region)[0]
    final = mcmc_run(region, start, ChainConfig(moves="flips", steps=2_000, seed=5))
    assert final == start


def test_trit_moves_leave_the_flip_component():
    region = make_box((3, 3, 2))
    start = flip_free_tilings(region)[0]
    final = mcmc_run(
        region, start, ChainConfig(moves="flips+trits", steps=2_000, seed=5)
    )
    assert validate(final) is None
    assert final != start


def test_uniformity_smoke_on_222():
    region = make_box((2, 2, 2))
    start = base_vertical_tiling(region)
    chain = _Chain(region, start, ChainConfig(moves="flips", steps=0, seed=0))
    counts = Counter()
    samples = 3_000
    for _ in range(samples):
        chain.advance(10)
        counts[encode(chain.tiling())] += 1
    states = {encode(t) for t in enumerate_tilings(region)}
    tv = 0.5 * sum(abs(counts.get(s, 0) / samples - 1 / 9) for s in states)
    assert tv < 0.05


def test_chain_with_trits_visits_both_flip_free_tilings():
    region = make_box((3, 3, 2))
    targets = {encode(t) for t in flip_free_tilings(region)}
    chain = _Chain(
        region,
        base_vertical_tiling(region),
        ChainConfig(moves="flips+trits", steps=0, seed=0),
    )
    seen = set()
    for _ in range(10_000_000):
        chain.advance(1)
        key = encode(chain.tiling())
        if key in targets:
            seen.add(key)
            if len(seen) == 2:
                break
    assert len(seen) == 2


def test_incremental_twist_matches_formula():
    # the chain keeps no twist; sum the signs of the trits it accepts
    region = make_box((3, 3, 2))
    start = base_vertical_tiling(region)
    chain = _Chain(region, start, ChainConfig(moves="flips+trits", steps=0, seed=9))
    offset = 0
    for _ in range(3_000):
        before, trits = chain.tiling(), chain.trits
        chain.advance(1)
        if chain.trits == trits:
            continue
        after = chain.tiling()
        steps = [apply_trit(before, move) for move in list_trits(before)]
        (sign,) = {sign for tiling, sign in steps if tiling == after}
        offset += sign
        assert twist(start) + offset == twist(after)
    assert chain.trits > 0
    assert twist(start) + offset == twist(chain.tiling())


# The seeded outputs below pin the RNG stream: they change if the window
# list, its order or the move applied in a window changes.

def test_seeded_twist_histograms_are_pinned():
    region = make_box((3, 3, 4))
    flips = twist_distribution(
        region, ChainConfig(moves="flips", steps=0, seed=1), samples=300
    )
    assert flips.counts == {0: 300}
    trits = twist_distribution(
        region, ChainConfig(moves="flips+trits", steps=0, seed=1), samples=300
    )
    assert trits.counts == {-1: 9, 0: 279, 1: 12}


@pytest.mark.parametrize(
    "region, moves, seed, expected",
    [
        (
            make_box((4, 4, 6)),
            "flips",
            5,
            "92586c832056c3d8b1ac80488bb2090b30b0ac124863b5295ab20c62d94c2cabb1ec5836",
        ),
        (
            make_box((4, 4, 6)),
            "flips+trits",
            5,
            "12cb6e12006d12066cacc4b25b12b16c96b02c584860b1810558b06cd84891b2654bd8b0",
        ),
        (
            _l_cylinder(4),
            "flips+trits",
            2,
            "12bb012c2bb15bc2b2009024",
        ),
        # a 4D chain: each lone white has up to five neighbours outside
        # its cube, and this run accepts 206 trits
        (
            make_box((2, 2, 2, 4)),
            "flips+trits",
            3,
            "92effb1be117bee8abfee22f",
        ),
    ],
)
def test_seeded_final_states_are_pinned(region, moves, seed, expected):
    start = base_vertical_tiling(region)
    final = mcmc_run(region, start, ChainConfig(moves=moves, steps=20_000, seed=seed))
    assert encode(final).hex() == expected


def _region_with_a_5_4_trit():
    # the same trit as in test_moves: its pairwise delta is 5/4
    box = make_box((3, 3, 4))
    region = make_region([c for c in box.cells if c not in {(2, 2, 3), (2, 1, 3)}])
    return region, decode(bytes.fromhex("80046d189b0061157652b2891d"), region)


def test_the_chain_moves_through_a_trit_that_does_not_step_the_twist_by_one():
    # apply_trit refuses this trit (test_moves); the chain reads no twist,
    # so to the chain it is one more move
    region, start = _region_with_a_5_4_trit()
    chain = _Chain(region, start, ChainConfig(moves="flips+trits", steps=0))
    held, moves = trit_windows(region)[(region.index[(1, 0, 1)], (0, 1, 2))]
    _, added = moves[held(start.partner)]
    chain.windows = [(held, moves)]
    chain.n_flips = 0
    chain.advance(1)
    assert chain.trits == 1
    assert chain.tiling() != start and validate(chain.tiling()) is None
    assert chain.tiling() == Tiling(region, matched(start.partner, added))

    config = ChainConfig(moves="flips+trits", steps=20_000, seed=4)
    chain = _Chain(region, start, config)
    chain.advance(config.steps)
    assert validate(chain.tiling()) is None
    partner, trits = chain_by_steps(region, start, config, config.steps)
    assert (chain.partner, chain.trits) == (partner, trits)
    assert trits > 0


@st.composite
def _chunked_runs(draw):
    # an even height, so the all-vertical tiling exists
    dims = (draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.sampled_from([2, 4])))
    seed = draw(st.integers(0, 2**32))
    moves = draw(st.sampled_from(["flips", "flips+trits"]))
    total = draw(st.integers(0, 3_000))
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=5)))
    chunks = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return dims, ChainConfig(moves=moves, steps=total, seed=seed), chunks


@settings(max_examples=100, deadline=None)
@given(_chunked_runs())
@example(((4, 4, 4), ChainConfig(moves="flips+trits", steps=3_000, seed=3), [1_000, 0, 1_999, 1]))
def test_chunked_advance_matches_the_per_step_chain(run):
    dims, config, chunks = run
    region = make_box(dims)
    start = base_vertical_tiling(region)
    chain = _Chain(region, start, config)
    for steps in chunks:
        chain.advance(steps)
    partner, trits = chain_by_steps(region, start, config, config.steps)
    assert chain.partner == partner
    assert chain.trits == trits


class _DrawLog:
    """A trit window's moves map that records the window's index on lookup."""

    def __init__(self, index, log):
        self.index, self.log = index, log

    def get(self, key, default=None):
        self.log.append(self.index)
        return default


@pytest.mark.parametrize("seed", [0, 7])
def test_window_draws_equal_randrange(seed):
    region = make_box((2, 2, 2))
    start = base_vertical_tiling(region)
    for n in range(1, 71):
        log = []
        chain = _Chain(region, start, ChainConfig(moves="flips", steps=0, seed=seed))
        chain.windows = [(itemgetter(0), _DrawLog(k, log)) for k in range(n)]
        chain.n_flips = 0
        chain.advance(25)
        rng = random.Random(seed)
        assert log == [rng.randrange(n) for _ in range(25)]


@pytest.mark.parametrize(
    "name", ["mean", "variance", "skewness", "excess_kurtosis", "moments"]
)
def test_empty_histogram_has_no_moments(name):
    with pytest.raises(InvalidRegion, match="empty twist histogram"):
        getattr(TwistHistogram({}), name)


def test_twist_distribution_point_mass_on_222():
    region = make_box((2, 2, 2))
    hist = twist_distribution(
        region, ChainConfig(moves="flips", steps=0, seed=1), samples=200
    )
    assert hist.counts == {0: 200}
    assert hist.moments == (0.0, 0.0, 0.0, 0.0)


def test_twist_distribution_support_on_332():
    region = make_box((3, 3, 2))
    hist = twist_distribution(
        region, ChainConfig(moves="flips+trits", steps=0, seed=2), samples=400
    )
    support = set(twist_census(region))
    assert set(hist.counts) <= support
    assert hist.n_samples == 400
    assert hist.meta["rng"] == "mt19937"
    assert "component" in hist.meta["ergodicity"]


def test_twist_distribution_multichain_merge_is_deterministic():
    region = make_box((2, 2, 2))
    config = ChainConfig(moves="flips", steps=0, seed=4)
    merged = twist_distribution(region, config, samples=90, chains=3)
    again = twist_distribution(region, config, samples=90, chains=3)
    assert merged.counts == again.counts
    assert merged.n_samples == 90


def _histogram_by_steps(region, config, samples):
    """The twist read at every sample of a chain rebuilt from the start
    for each sample."""
    start = base_vertical_tiling(region)
    thin = region.n_cells
    burn_in = 100 * thin if config.burn_in is None else config.burn_in
    counts = Counter()
    for k in range(1, samples + 1):
        partner, _ = chain_by_steps(region, start, config, burn_in + k * thin)
        counts[twist(Tiling(region, tuple(partner)))] += 1
    return dict(sorted(counts.items()))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("moves", ["flips", "flips+trits"])
@pytest.mark.parametrize(
    "region",
    [make_box((3, 3, 2)), make_box((3, 3, 4)), make_box((4, 4, 4)), _l_cylinder(4)],
    ids=["3x3x2", "3x3x4", "4x4x4", "L-disk-x4"],
)
def test_twist_distribution_equals_the_twist_read_at_every_sample(region, moves, seed):
    config = ChainConfig(moves=moves, seed=seed, burn_in=50 * region.n_cells)
    hist = twist_distribution(region, config, samples=40)
    assert hist.counts == _histogram_by_steps(region, config, 40)


def test_twist_distribution_refuses_steps():
    config = ChainConfig(moves="flips", steps=10, seed=1)
    with pytest.raises(InvalidRegion, match="steps must be 0, got 10$"):
        twist_distribution(make_box((2, 2, 2)), config, samples=5)


def test_twist_distribution_rejects_2d():
    with pytest.raises(InvalidRegion):
        twist_distribution(
            make_box((2, 2)), ChainConfig(moves="flips", steps=0), samples=10
        )

def test_histogram_moments():
    hist = TwistHistogram(counts={-1: 1, 0: 2, 1: 1})
    mean, variance, skewness, kurtosis = hist.moments
    assert mean == 0.0
    assert variance == 0.5
    assert skewness == 0.0
    assert kurtosis == -1.0


def test_histogram_csv_and_svg(tmp_path):
    hist = TwistHistogram(counts={-1: 3, 0: 10, 2: 1})
    csv_path = tmp_path / "hist.csv"
    histogram_csv(hist, csv_path)
    assert csv_path.read_text().splitlines() == [
        "twist,count",
        "-1,3",
        "0,10",
        "2,1",
    ]
    svg = histogram_svg(hist)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<rect") == 3


@pytest.mark.slow
def test_twist_distribution_4_4_20_is_roughly_normal():
    # symmetric region, so skewness should vanish; at height 20 the
    # distribution is still visibly leptokurtic (measured excess kurtosis
    # 0.7..0.9 across seeds), so the tail bound sits above that
    region = make_box((4, 4, 20))
    hist = twist_distribution(
        region, ChainConfig(moves="flips+trits", steps=0, seed=0), samples=10_000
    )
    assert hist.n_samples == 10_000
    assert abs(hist.skewness) < 0.2
    assert abs(hist.excess_kurtosis) < 1.2
    assert hist.variance > 0.5
