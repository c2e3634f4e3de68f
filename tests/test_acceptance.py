"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The extended-scale
census (criterion 3) is opt-in via --run-extended: it needs about a week
of runtime (see the README) and large scratch space.
"""
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from dimers.core import (
    add_vertical_floors,
    base_vertical_tiling,
    encode,
    make_box,
    refine_tiling,
)
from dimers.counting import count_rect_2d_formula, count_region
from dimers.explore import (
    component_trit_graph,
    enumerate_tilings,
    flip_connected_2d,
    flip_free_tilings,
    iter_free_simply_connected_polyominoes,
    twist_census,
    tw_max,
)
from dimers.moves import (
    apply_flip,
    apply_trit,
    list_flips,
    list_trits,
)
from dimers.sample import ChainConfig, _Chain
from dimers.slab import (
    all_pair_twists,
    apply_slab_flip,
    enumerate_slab_tilings,
    horizontal_slab_tiling,
    list_slab_flips,
    triple_twist,
)
from dimers.twist import pfaffian_alternating_sum, twist, twist_by_path, twist_mod2

from oracles import apply_trit_structural


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_bypass(capfd):
    # let the PASS/FAIL lines through pytest's fd capture, so they show
    # in plain `pytest -v` runs as well
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _announce(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE {number:02d} FAIL: {name}")
        raise
    _announce(f"ACCEPTANCE {number:02d} PASS: {name}")


def test_criterion_01_exact_counts():
    with criterion(1, "exact counts 3x3x2, 4x4x4, 4x4x8"):
        t0 = time.time()
        assert count_region(make_box((3, 3, 2))) == 229
        assert time.time() - t0 < 1.0
        t0 = time.time()
        assert count_region(make_box((4, 4, 4))) == 5_051_532_105
        assert time.time() - t0 < 60.0
        t0 = time.time()
        assert count_region(make_box((4, 4, 8))) == 175_220_727_982_196_365_632
        assert time.time() - t0 < 300.0


def test_criterion_02_component_census_332():
    with criterion(2, "3x3x2 flip components {227,1,1}, trit graph connected"):
        t0 = time.time()
        graph = component_trit_graph(make_box((3, 3, 2)))
        assert graph.census.sizes == [227, 1, 1]
        singletons = {rep for size, rep in graph.census.components if size == 1}
        free = {encode(t) for t in flip_free_tilings(make_box((3, 3, 2)))}
        assert singletons == free
        assert graph.is_connected()
        assert time.time() - t0 < 30.0


@pytest.mark.extended
def test_criterion_03_component_census_444_extended(tmp_path):
    with criterion(3, "4x4x4 census: 93 components, 24 flip-free, tw_max 4"):
        from dimers.explore import flip_components_extended

        census = flip_components_extended(make_box((4, 4, 4)), tmp_path)
        expected = (
            [4_412_646_453]
            + [310_185_960] * 2
            + [8_237_514] * 2
            + [718_308] * 2
            + [283_044] * 2
            + [2_576] * 6
            + [618] * 24
            + [236] * 24
            + [4] * 6
            + [1] * 24
        )
        assert census.sizes == sorted(expected, reverse=True)
        assert len(census.components) == 93
        assert census.multiplicity[1] == 24
        # twist is a flip invariant, so the maximum over representatives
        # is the maximum over all tilings
        levels = [
            twist(census.representative(k)) for k in range(len(census.components))
        ]
        assert max(levels) == 4
        assert min(levels) == -4


def test_criterion_04_formula_vs_dp():
    with criterion(4, "2D product formula matches DP for m,n <= 8"):
        t0 = time.time()
        for m in range(1, 9):
            for n in range(1, 9):
                if (m * n) % 2:
                    continue
                exact = count_region(make_box((m, n)))
                value = count_rect_2d_formula(m, n)
                assert round(value) == exact
                assert abs(value - exact) < 1e-6 * exact
        assert time.time() - t0 < 10.0


def test_criterion_05_twist_invariant_suite():
    with criterion(5, "twist suite exhaustive on 3x3x2, 2x2x2, 2x2x4"):
        t0 = time.time()
        for dims in [(3, 3, 2), (2, 2, 2), (2, 2, 4)]:
            region = make_box(dims)
            base = base_vertical_tiling(region)
            tilings = list(enumerate_tilings(region))
            values = {encode(t): twist(t) for t in tilings}

            for t in tilings:
                key = encode(t)
                # pretwist axis agreement
                from dimers.twist import pretwist

                assert pretwist(t, 0) == pretwist(t, 1) == pretwist(t, 2)
                # flips preserve the twist
                for move in list_flips(t):
                    assert values[encode(apply_flip(t, move))] == values[key]
                # every trit steps it by exactly its sign; edge-by-edge
                # consistency makes all signed cycle sums vanish
                for move in list_trits(t):
                    after, sign = apply_trit(t, move)
                    assert abs(sign) == 1
                    assert values[encode(after)] - values[key] == sign

            # the path oracle telescopes to the formula wherever it reaches
            assert twist_by_path(base) == 0
            for t in flip_free_tilings(region):
                assert twist_by_path(t) == values[encode(t)]
            for t in tilings[::20]:
                assert twist_by_path(t) == values[encode(t)]

            # refinement and two added vertical floors preserve the twist
            for t in tilings:
                assert twist(add_vertical_floors(t, 2)) == values[encode(t)]
                assert twist(refine_tiling(t)) == values[encode(t)]
        assert time.time() - t0 < 600.0


def test_criterion_06_pfaffian_theorem():
    with criterion(6, "Kasteleyn determinant equals census alternating sum"):
        t0 = time.time()
        for dims in [(2, 2, 2), (3, 3, 2), (2, 2, 4)]:
            region = make_box(dims)
            alternating = sum(
                count * (-1) ** value
                for value, count in twist_census(region).items()
            )
            assert abs(pfaffian_alternating_sum(region)) == abs(alternating)
        assert time.time() - t0 < 60.0


def test_criterion_07_twist_upper_bound():
    with criterion(7, "tw_max/(LMN*min) <= 1/16 on enumerated boxes"):
        # the census is counted, not enumerated, so 3x4x4 runs past the cap
        peaks = {(3, 4, 4): 2, (2, 4, 6): 2}
        for dims in [(2, 2, 2), (3, 3, 2), (2, 2, 4), (2, 2, 6), (3, 3, 4), *peaks]:
            l, m, n = dims
            peak = tw_max(make_box(dims))
            assert peak / (l * m * n * min(dims)) <= 1 / 16
            if dims in peaks:
                assert peak == peaks[dims]


def test_criterion_08_mcmc_uniformity():
    with criterion(8, "flip chain on 2x2x2 is uniform (TV < 0.01)"):
        t0 = time.time()
        region = make_box((2, 2, 2))
        states = {encode(t) for t in enumerate_tilings(region)}
        chain = _Chain(
            region,
            base_vertical_tiling(region),
            ChainConfig(moves="flips", steps=0, seed=0),
        )
        samples = 10_000
        counts = Counter()
        for _ in range(samples):
            chain.advance(10)  # 10^5 proposals in total
            counts[encode(chain.tiling())] += 1
        assert set(counts) <= states
        tv = 0.5 * sum(abs(counts.get(s, 0) / samples - 1 / 9) for s in states)
        assert tv < 0.01
        assert time.time() - t0 < 30.0


def test_criterion_09_thurston_2d():
    with criterion(9, "all simply connected 2D regions <= 12 cells flip connected"):
        t0 = time.time()
        checked = 0
        for cells in iter_free_simply_connected_polyominoes(12):
            if sum(1 if (x + y) % 2 == 0 else -1 for x, y in cells) != 0:
                continue  # unbalanced: no tilings, vacuously connected
            assert flip_connected_2d(cells)
            checked += 1
        assert checked == 33_750
        assert time.time() - t0 < 120.0


def test_criterion_10_slab_suite():
    with criterion(10, "slab tilings: triple twist invariance and relations"):
        t0 = time.time()
        assert triple_twist(horizontal_slab_tiling(make_box((4, 4, 2)))) == (0, 0, 0)
        for dims in [(4, 2, 2), (4, 4, 2)]:
            for tiling in enumerate_slab_tilings(make_box(dims)):
                triple = triple_twist(tiling)
                values = all_pair_twists(tiling)
                assert values[("R", "G")] + values[("Y", "B")] == 0
                assert values[("R", "B")] + values[("G", "Y")] == 0
                assert values[("R", "Y")] + values[("G", "B")] == 0
                for move in list_slab_flips(tiling):
                    assert triple_twist(apply_slab_flip(tiling, move)) == triple
        assert time.time() - t0 < 300.0


def test_criterion_11_ideal_export(tmp_path):
    with criterion(11, "2x3 ideal export: example binomials and round-trip"):
        t0 = time.time()
        from dimers.ideals import export_ideals, parse_ideals, binomial_str

        region = make_box((2, 3))
        path = tmp_path / "ideals.txt"
        export_ideals(region, path, with_tiling_ideal=True)
        text = path.read_text()
        # x4*x7 - x3*x5 and x1*x4*x7 - x1*x3*x5 under the documented
        # relabeling x1->e0, x3->e3, x4->e2, x5->e6, x7->e4
        assert "+e2*e4 -e3*e6" in text
        assert "+e0*e2*e4 -e0*e3*e6" in text

        parsed = parse_ideals(path)
        lines = [binomial_str(b) for b in parsed["flip"] + parsed["tiling"]]
        assert all(line in text for line in lines)
        export_ideals(region, tmp_path / "again.txt", with_tiling_ideal=True)
        assert (tmp_path / "again.txt").read_text() == text
        assert time.time() - t0 < 5.0


def test_criterion_12_d4_smoke():
    with criterion(12, "2x2x2x2: flips preserve, trits flip the mod-2 twist"):
        t0 = time.time()
        region = make_box((2, 2, 2, 2))
        tilings = list(enumerate_tilings(region))
        assert len(tilings) == 272

        # parity potentials over the full move graph, checked edge by edge:
        # consistency of every edge is parity path-independence
        base = base_vertical_tiling(region)
        parity = {encode(base): 0}
        frontier = [base]
        while frontier:
            nxt = []
            for t in frontier:
                level = parity[encode(t)]
                neighbors = [(apply_flip(t, m), 0) for m in list_flips(t)]
                neighbors += [
                    (apply_trit_structural(t, m), 1) for m in list_trits(t)
                ]
                for other, step in neighbors:
                    key = encode(other)
                    want = (level + step) % 2
                    if key in parity:
                        assert parity[key] == want
                    else:
                        parity[key] = want
                        nxt.append(other)
            frontier = nxt
        assert len(parity) == 272  # the whole graph is flip+trit connected

        assert twist_mod2(base) == 0
        for t in tilings[:8]:
            assert twist_mod2(t) == parity[encode(t)]
        trit_seen = False
        for t in tilings:
            for move in list_trits(t):
                after, _ = apply_trit(t, move)
                assert twist_mod2(after) == 1 - twist_mod2(t)
                trit_seen = True
                break
            if trit_seen:
                break
        assert trit_seen
        assert time.time() - t0 < 60.0
