import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from dimers.core import (
    Tiling,
    add_vertical_floors,
    base_vertical_tiling,
    decode,
    make_box,
    make_cylinder,
    make_region,
    matched,
    refine_region,
    refine_tiling,
    tiling_from_dominoes,
)
from dimers.errors import (
    CalibrationError,
    InvalidRegion,
    NotReachable,
    UnbalancedRegion,
)
from dimers.explore import _component_keys, enumerate_tilings, flip_components, flip_free_tilings
from dimers.moves import (
    apply_flip,
    apply_trit,
    list_flips,
    list_trits,
    trit_neighbors,
)
from dimers.twist import (
    calibration,
    kasteleyn_matrix,
    pfaffian_alternating_sum,
    pretwist,
    trit_sign,
    twist,
    twist_by_path,
    twist_mod2,
    _crossings,
    _det_bareiss,
)

from oracles import (
    apply_trit_structural,
    crossings_by_cells,
    kasteleyn_matrix_by_cells,
    pairwise_crossings,
    trit_step_by_column,
)
from test_moves import small_regions


def test_calibration_values():
    cal = calibration()
    assert cal.kappa == Fraction(1, 8)
    assert cal.sign == 1
    assert "x:+1" in cal.kasteleyn_rule


def test_pretwist_of_base_vertical_vanishes_on_all_axes():
    for dims in [(2, 2, 2), (3, 3, 2), (4, 4, 2)]:
        t = base_vertical_tiling(make_box(dims))
        for axis in range(3):
            assert pretwist(t, axis) == 0


def test_pretwist_vanishes_on_222():
    for t in enumerate_tilings(make_box((2, 2, 2))):
        for axis in range(3):
            assert pretwist(t, axis) == 0


def test_pretwist_axis_agreement_on_332():
    for t in enumerate_tilings(make_box((3, 3, 2))):
        values = {pretwist(t, axis) for axis in range(3)}
        assert len(values) == 1


def test_pretwist_rejects_non_3d():
    with pytest.raises(InvalidRegion):
        pretwist(base_vertical_tiling(make_box((2, 2))), 0)
    with pytest.raises(InvalidRegion):
        pretwist(base_vertical_tiling(make_box((2, 2, 2))), 3)


def test_twist_of_base_is_zero():
    assert twist(base_vertical_tiling(make_box((3, 3, 2)))) == 0
    assert twist(base_vertical_tiling(make_box((4, 4, 4)))) == 0


def test_twist_constant_on_flip_moves():
    for t in enumerate_tilings(make_box((3, 3, 2))):
        value = twist(t)
        for move in list_flips(t):
            assert twist(apply_flip(t, move)) == value


@pytest.mark.parametrize("height", [2, 4])
@pytest.mark.parametrize(
    "disk",
    [
        [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)],
        [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2), (1, 2)],
    ],
    ids=["3x3-ring", "8-cell-L"],
)
def test_twist_is_constant_on_every_flip_component_of_a_cylinder(disk, height):
    # the sampler reads the twist only after a trit, so a flip must keep it
    region = make_cylinder(make_region(disk), height)
    census = flip_components(region, None)
    for comp_id, (size, _) in enumerate(census.components):
        keys = _component_keys(census.representative(comp_id))
        assert len(keys) == size
        assert len({twist(decode(key, region)) for key in keys}) == 1


def test_twist_steps_by_trit_sign():
    for t in enumerate_tilings(make_box((3, 3, 2))):
        for move in list_trits(t):
            after, sign = apply_trit(t, move)
            assert twist(after) - twist(t) == sign
            assert abs(sign) == 1


def test_twist_flip_free_tilings_at_plus_minus_one():
    values = sorted(twist(t) for t in flip_free_tilings(make_box((3, 3, 2))))
    assert values == [-1, 1]


def test_twist_refinement_invariance_samples():
    tilings = list(enumerate_tilings(make_box((3, 3, 2))))
    for t in (tilings[0], tilings[57], tilings[228]):
        assert twist(refine_tiling(t)) == twist(t)


def test_twist_vertical_extension_invariance():
    for t in enumerate_tilings(make_box((2, 2, 2))):
        assert twist(add_vertical_floors(t, 2)) == twist(t)
    free = flip_free_tilings(make_box((3, 3, 2)))
    for t in free:
        assert twist(add_vertical_floors(t, 2)) == twist(t)


def test_refined_and_extended_regions_are_shared_and_keep_the_twist():
    # a 5-cell disk x 2: refine_region and add_vertical_floors return one
    # Region per source region, on cylinders and general regions alike
    disk = make_region([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    cylinder = make_cylinder(disk, 2)
    general = make_region(cylinder.cells)
    assert refine_region(general) is refine_region(general)
    for t in enumerate_tilings(cylinder):
        refined, extended = refine_tiling(t), add_vertical_floors(t, 2)
        assert refined.region is refine_region(cylinder)
        assert extended.region is add_vertical_floors(t, 2).region
        # the same dominoes on a freshly built, equal region
        region = refined.region
        disk, height = region.prism
        fresh = tiling_from_dominoes(make_cylinder(make_region(disk, d=2), height), refined.dominoes())
        assert fresh.region == region and fresh.region is not region
        assert twist(refined) == twist(fresh) == twist(t) == twist(extended)


def test_twist_uses_lex_smallest_reference_without_base():
    # odd-height box: no all-vertical tiling, reference falls back to the
    # first enumerated tiling, which must get twist zero
    region = make_box((3, 3, 3))
    # 3x3x3 is unbalanced (27 cells); use an L-shaped even region instead
    region = make_region(
        [(x, y, z) for x in range(2) for y in range(3) for z in range(2)]
    )
    first = next(enumerate_tilings(region))
    assert twist(first) == 0


def test_twist_by_path_base_is_zero():
    base = base_vertical_tiling(make_box((3, 3, 2)))
    assert twist_by_path(base) == 0


def test_twist_by_path_matches_formula_on_flip_free():
    for t in flip_free_tilings(make_box((3, 3, 2))):
        assert twist_by_path(t) == twist(t)


def test_twist_by_path_cap_raises():
    t = flip_free_tilings(make_box((3, 3, 2)))[0]
    with pytest.raises(NotReachable):
        twist_by_path(t, cap=3)


def test_twist_mod2_requires_d4():
    with pytest.raises(InvalidRegion):
        twist_mod2(base_vertical_tiling(make_box((2, 2, 2))))


def test_twist_mod2_base_and_one_trit():
    region = make_box((2, 2, 2, 2))
    base = base_vertical_tiling(region)
    assert twist_mod2(base) == 0
    flipped = apply_flip(base, list_flips(base)[0])
    assert twist_mod2(flipped) == 0
    with_trit = None
    for t in enumerate_tilings(region):
        trits = list_trits(t)
        if trits:
            with_trit = apply_trit_structural(t, trits[0])
            before = twist_mod2(t)
            after = twist_mod2(with_trit)
            assert after == 1 - before
            break
    assert with_trit is not None


def test_trits_in_4d_report_positive_sign():
    region = make_box((2, 2, 2, 2))
    for t in enumerate_tilings(region):
        trits = list_trits(t)
        if trits:
            after, sign = apply_trit(t, trits[0])
            assert sign == 1
            break


def test_kasteleyn_matrix_1x1():
    k = kasteleyn_matrix(make_box((1, 1, 2)))
    assert len(k.whites) == len(k.blacks) == 1
    assert k.entries[0][0] in (1, -1)


def test_kasteleyn_dims_are_half_the_cells():
    region = make_box((2, 2, 4))
    k = kasteleyn_matrix(region)
    assert len(k.whites) == len(k.blacks) == region.n_cells // 2


def test_kasteleyn_2d_determinant_counts_tilings():
    assert abs(pfaffian_alternating_sum(make_box((2, 2)))) == 2
    assert abs(pfaffian_alternating_sum(make_box((2, 3)))) == 3
    assert abs(pfaffian_alternating_sum(make_box((4, 4)))) == 36


@pytest.mark.parametrize(
    "region",
    [make_box((4, 4, 2)), make_box((8, 8, 4)), make_box((20, 20)), make_box((3, 2)),
     make_region([c for c in make_box((3, 3, 2)).cells if c[:2] != (1, 1)]),
     make_region(make_cylinder(make_region([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]), 2).cells)],
    ids=["4x4x2", "8x8x4", "20x20", "3x2", "3x3x2-minus-a-column", "disk5-x2"],
)
def test_kasteleyn_matrix_matches_the_coordinate_oracle(region):
    assert kasteleyn_matrix(region) == kasteleyn_matrix_by_cells(region)


def test_kasteleyn_rejects_unbalanced():
    with pytest.raises(UnbalancedRegion):
        kasteleyn_matrix(make_region([(0, 0), (1, 0), (2, 0)]))


def test_pfaffian_alternating_sum_values():
    assert abs(pfaffian_alternating_sum(make_box((2, 2, 2)))) == 9
    assert abs(pfaffian_alternating_sum(make_box((3, 3, 2)))) == 225
    census_alt = sum(
        (-1) ** twist(t) for t in enumerate_tilings(make_box((2, 2, 4)))
    )
    assert abs(pfaffian_alternating_sum(make_box((2, 2, 4)))) == abs(census_alt)


@pytest.mark.slow
def test_pfaffian_theorem_on_more_boxes():
    for dims in [(2, 2, 6), (2, 3, 4), (2, 4, 4)]:
        region = make_box(dims)
        census_alt = sum((-1) ** twist(t) for t in enumerate_tilings(region))
        assert abs(pfaffian_alternating_sum(region)) == abs(census_alt)


def test_det_bareiss_matches_known_values():
    assert _det_bareiss([[2, 1], [1, 2]]) == 3
    assert _det_bareiss([[0, 1], [1, 0]]) == -1
    assert _det_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert _det_bareiss([]) == 1


@pytest.mark.slow
def test_axis_agreement_up_to_334():
    for dims in [(2, 2, 4), (3, 3, 4)]:
        for t in enumerate_tilings(make_box(dims)):
            assert pretwist(t, 0) == pretwist(t, 1) == pretwist(t, 2)


def _check_against_pairwise_oracle(region, tilings, axes=range(3)) -> set[str]:
    """pretwist on `axes` and the sign of every trit of each tiling against
    the oracle's crossing sums, and the column recompute against both;
    returns the sizes of the steps that are not +-1 and that trit_sign
    therefore rejects."""
    cal = calibration()
    scale = cal.sign * 2 * cal.kappa
    rejected = set()
    for t in tilings:
        for k in axes:
            assert pretwist(t, k) == scale * pairwise_crossings(t, k)
        trits = trit_neighbors(region, t.partner)
        before = pairwise_crossings(t, 2) if trits else None
        for after, removed, added in trits:
            step = scale * (pairwise_crossings(Tiling(region, after), 2) - before)
            assert trit_step_by_column(region, t.partner, removed, added) == step
            if step in (1, -1):
                assert trit_sign(region, t.partner, removed, added) == step
            else:
                rejected.add(str(abs(step)))
                with pytest.raises(CalibrationError, match=f"by {step}$"):
                    trit_sign(region, t.partner, removed, added)
    return rejected


@settings(max_examples=40, deadline=None)
@given(small_regions(3))
@example(make_box((3, 3, 2)))
@example(make_box((2, 3, 4)))
def test_crossing_sum_and_trit_signs_match_the_pairwise_oracle(region):
    rejected = _check_against_pairwise_oracle(region, enumerate_tilings(region))
    # on boxes every trit steps the twist by one; general regions may not
    assert region.dims is None or not rejected


@pytest.mark.parametrize("missing", [{(2, 2, 3), (2, 1, 3)}, {(0, 0, 0), (1, 0, 0)}])
def test_trit_signs_match_the_pairwise_oracle_on_general_regions(missing):
    # the pairwise step of some trits is 5/4 or 3/4 on these regions; every
    # trit of every tiling is checked, pretwist only on the random regions
    region = make_region([c for c in make_box((3, 3, 4)).cells if c not in missing])
    tilings = enumerate_tilings(region, cap=None)
    assert _check_against_pairwise_oracle(region, tilings, axes=()) == {"3/4", "5/4"}


def test_line_kernel_matches_the_cell_reading_kernel():
    # all three axes on a box and on a region whose lines have gaps, over
    # whole tilings and random subsets of their dominoes with the other
    # cells uncovered (-1), as the slice-transfer oracle passes
    rng = random.Random(5)
    box = make_box((2, 3, 4))
    for region in (box, make_region(set(box.cells) - {(1, 1, 1), (1, 1, 2)})):
        for t in enumerate_tilings(region):
            pairs = [(i, j) for i, j in enumerate(t.partner) if i < j]
            subset = [pair for pair in pairs if rng.random() < 0.5]
            partial = matched([-1] * region.n_cells, subset)
            for k in range(3):
                assert _crossings(region, t.partner, k) == crossings_by_cells(region, pairs, k)
                assert _crossings(region, partial, k) == crossings_by_cells(region, subset, k)


def test_line_kernel_refuses_a_partner_that_is_not_a_neighbour():
    region = make_box((2, 2, 2))
    for pair in [(0, 3), (0, 0), (0, 7)]:
        with pytest.raises(KeyError):
            _crossings(region, matched([-1] * region.n_cells, [pair]), 2)
