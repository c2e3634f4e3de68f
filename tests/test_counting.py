import hashlib
from collections import Counter
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dimers.core import (
    make_box,
    make_cylinder,
    make_region,
    matchings,
    region_from_record,
    region_to_record,
)
from dimers.counting import (
    _dp_plan,
    _sweep,
    build_automaton,
    count_cylinder,
    count_rect_2d_formula,
    count_region,
    profile_width,
    twist_polynomial,
)
from dimers.errors import InvalidRegion, WidthGuardExceeded
from dimers.explore import components, enumerate_tilings

from oracles import (
    automaton_cylinder_count,
    dp_plan_by_every_order,
    naive_tilings,
    permanent_count,
    sweep_by_cells,
    twist_polynomial_by_slices,
)
from test_explore import DISK6
from test_moves import small_regions


@pytest.mark.parametrize(
    "region",
    [
        make_box((2, 2)),
        make_box((2, 3)),
        make_box((4, 4)),
        make_box((2, 2, 2)),
        make_box((3, 3, 2)),
        make_box((2, 2, 2, 2)),
        make_region([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2)]),
        make_region([(0, 0), (1, 0), (0, 1)]),  # unbalanced L: zero tilings
    ],
)
def test_count_region_matches_permanent_oracle(region):
    assert count_region(region) == permanent_count(region)


def test_count_region_golden_values():
    assert count_region(make_box((3, 3, 2))) == 229
    assert count_region(make_box((2, 2, 2))) == 9


def test_count_region_degenerate_cases():
    assert count_region(make_region([], d=3)) == 1  # empty product
    assert count_region(make_region([(0, 0, 0)])) == 0  # unbalanced
    assert count_region(make_region([(0, 0), (0, 1), (1, 0)])) == 0


def test_count_region_width_guard():
    # every axis order of 5x5x5 has profile width 25, over the guard of 24
    with pytest.raises(WidthGuardExceeded, match="profile width 25"):
        count_region(make_box((5, 5, 5)))
    # 5x5x2 is swept with a side of 5 most significant (width 10, where
    # the last axis first would be 25), so it counts under the guard, and
    # the guard applies to that sweep
    assert count_region(make_box((5, 5, 2))) == 19114420
    assert count_region(make_box((5, 5, 2))) == count_region(make_box((5, 2, 5)))


_SQUARE_3 = [(x, y) for x in range(3) for y in range(3)]


@pytest.mark.parametrize(
    "region",
    [
        *map(make_box, [(4, 4, 8), (3, 4, 6), (6, 3, 4), (12, 12), (2, 2, 2, 6), (3, 3, 2), (4, 4, 4)]),
        make_cylinder(make_box((3, 3)), 4),
        make_cylinder(make_region(_SQUARE_3), 4),
    ],
    ids=["4x4x8", "3x4x6", "6x3x4", "12x12", "2x2x2x6", "3x3x2", "4x4x4",
         "box-disk-cylinder", "general-disk-cylinder"],
)
def test_dp_plan_sweeping_one_order_per_side_sequence_is_the_plan_of_every_order(region):
    assert _dp_plan(region) == dp_plan_by_every_order(region)


@st.composite
def plan_slices(draw):
    """A slice of the _dp_plan plan of a 2D, 3D or 4D box of up to 36
    cells minus up to a third of them, and the states before it: the
    states a sweep of the plan reaches there, or random masks and ways."""
    d = draw(st.integers(2, 4))
    side = {2: 6, 3: 4, 4: 3}[d]
    cells = make_box(draw(st.tuples(*[st.integers(1, side)] * d).filter(
        lambda dims: prod(dims) <= 36))).cells
    missing = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3))
    width, plan, _ = _dp_plan(make_region([c for c in cells if c not in missing], d=d))
    start = draw(st.integers(0, len(plan)))
    stop = draw(st.integers(start, len(plan)))
    if draw(st.booleans()):
        states = sweep_by_cells(plan[:start], {0: 1})
    else:
        states = draw(st.dictionaries(
            st.integers(0, (2 << width) - 1), st.integers(1, 2**70), min_size=1, max_size=20))
    return plan[start:stop], states


_PLAN_333 = _dp_plan(make_box((3, 3, 3)))[1]
_PLAN_4422 = _dp_plan(make_box((4, 4, 2, 2)))[1]


# count_region's odd-layer step on 3x3x3, from the prism's half (cells
# 9-17, both ends inside a block of 4), and a 4D slice from mid-block to
# mid-block
@settings(max_examples=100, deadline=None)
@given(plan_slices())
@example((_PLAN_333[9:18], sweep_by_cells(_PLAN_333[:9], {0: 1})))
@example((_PLAN_4422[6:27], sweep_by_cells(_PLAN_4422[:6], {0: 1})))
def test_the_block_sweep_reaches_the_states_of_the_cell_by_cell_sweep(plan_and_states):
    plan, states = plan_and_states
    assert _sweep(plan, dict(states)) == sweep_by_cells(plan, dict(states))


def test_profile_width_is_cross_section():
    # the smallest cross-section: the longest side is swept most significant
    assert profile_width(make_box((3, 3, 2))) == 6
    assert profile_width(make_box((8, 3, 3))) == 9
    assert profile_width(make_box((3, 3, 8))) == 9
    assert profile_width(make_box((6, 3, 4))) == 12
    assert profile_width(make_box((5, 4, 4))) == 16
    assert profile_width(make_box((4, 4, 8))) == 16


def test_count_transposition_symmetry():
    reference = count_region(make_box((2, 3, 4)))
    for dims in [(2, 4, 3), (3, 2, 4), (3, 4, 2), (4, 2, 3), (4, 3, 2)]:
        assert count_region(make_box(dims)) == reference


def test_rect_formula_small_cases():
    assert abs(count_rect_2d_formula(2, 2) - 2.0) < 1e-9
    assert abs(count_rect_2d_formula(1, 2) - 1.0) < 1e-9
    assert abs(count_rect_2d_formula(2, 3) - 3.0) < 1e-9


def test_rect_formula_agrees_with_dp_up_to_8():
    for m in range(1, 9):
        for n in range(1, 9):
            if (m * n) % 2:
                continue
            exact = count_region(make_box((m, n)))
            value = count_rect_2d_formula(m, n)
            assert round(value) == exact
            assert abs(value - exact) < 1e-6 * exact


def test_rect_formula_rejects_bad_sides():
    with pytest.raises(InvalidRegion):
        count_rect_2d_formula(0, 4)


def test_build_automaton_2x2_disk():
    disk = make_box((2, 2))
    automaton = build_automaton(disk)
    assert automaton.plugs[0] == 0
    # empty, the four edge pairs, and the full plug are exactly the states
    assert sorted(automaton.plugs) == [0, 3, 5, 10, 12, 15]
    empty = automaton.plugs.index(0)
    assert automaton.matrix[empty][empty] == 2
    # every reachable plug can move somewhere
    assert all(any(row) for row in automaton.matrix)


def test_build_automaton_1x2_disk():
    disk = make_box((1, 2))
    automaton = build_automaton(disk)
    empty = automaton.plugs.index(0)
    assert automaton.matrix[empty][empty] == 1
    full = automaton.plugs.index(3)
    assert automaton.matrix[empty][full] == 1
    assert automaton.matrix[full][empty] == 1
    assert automaton.matrix[full][full] == 0


def test_automaton_transitions_are_symmetric():
    for disk in (make_box((2, 2)), make_box((3, 3)), make_box((2, 3))):
        automaton = build_automaton(disk)
        n = len(automaton.plugs)
        for i in range(n):
            for j in range(n):
                assert automaton.matrix[i][j] == automaton.matrix[j][i]


def test_count_cylinder_golden_values():
    assert count_cylinder(make_box((3, 3)), 2) == 229
    assert count_cylinder(make_box((4, 4)), 4) == 5051532105
    assert count_cylinder(make_box((4, 4)), 8) == 175220727982196365632


def test_cylinder_agrees_with_dp_on_small_disks():
    disks = [
        make_box((2, 2)),
        make_box((2, 3)),
        make_box((3, 3)),
        make_region([(0, 0), (1, 0), (2, 0), (0, 1)]),
    ]
    for disk in disks:
        for height in range(1, 5):
            expected = automaton_cylinder_count(disk, height)
            assert count_region(make_cylinder(disk, height)) == expected
            assert count_cylinder(disk, height) == expected


def test_cylinder_over_a_disconnected_disk_is_the_product_count():
    disk = make_region([(0, 0), (1, 0), (3, 0), (3, 1), (4, 0), (4, 1)])
    for height in range(1, 5):
        expected = automaton_cylinder_count(disk, height)
        assert count_cylinder(disk, height) == expected
        assert expected == (
            count_cylinder(make_box((2, 1)), height)
            * count_cylinder(make_box((2, 2)), height)
        )


def test_count_cylinder_guards():
    with pytest.raises(InvalidRegion):
        count_cylinder(make_box((2, 2)), 0)
    # the guard is count_region's, on the sweep it runs: at height 5 every
    # order has width 25; at height 2 a sweep along the disk has width 10
    with pytest.raises(WidthGuardExceeded):
        count_cylinder(make_box((5, 5)), 5)
    assert count_cylinder(make_box((5, 5)), 2) == count_region(make_box((5, 5, 2)))


def test_count_cylinder_large_height_matches_automaton_walk():
    for disk in (make_box((2, 2)), make_region([(0, 0), (1, 0), (2, 0), (0, 1)])):
        assert count_cylinder(disk, 40) == automaton_cylinder_count(disk, 40)


def test_counts_are_exact_python_ints():
    value = count_cylinder(make_box((3, 3)), 10)
    assert isinstance(value, int)
    assert value == count_region(make_box((3, 3, 10)))


# the boxes are swept along a strictly narrower order than the default one
@settings(max_examples=60, deadline=None)
@given(st.one_of(small_regions(2), small_regions(3)))
@example(make_box((4, 2)))
@example(make_box((4, 2, 2)))
@example(make_box((2, 4, 2)))
def test_count_region_matches_the_oracles_in_every_axis_order(region):
    count = count_region(region)
    assert count == permanent_count(region)
    assert count == len(list(enumerate_tilings(region, cap=None)))
    for axes in permutations(range(region.d)):
        permuted = make_region([[c[a] for a in axes] for c in region.cells], d=region.d)
        assert count_region(permuted) == count


def test_twist_polynomial_weights_and_guard():
    # crossing sums are four times the twist (kappa 1/8 over ordered pairs)
    assert twist_polynomial(make_box((2, 3, 4))) == {-4: 10, 0: 1825, 4: 10}
    assert twist_polynomial(make_box((3, 3, 3))) == {}
    # a box is swept in count_region's order: 1x2x30 with width 2, 5x5x6
    # with width 25, x fastest
    assert twist_polynomial(make_box((1, 2, 30))) == {0: 1346269}
    with pytest.raises(WidthGuardExceeded, match="^profile width 25 exceeds guard 24$"):
        twist_polynomial(make_box((5, 5, 6)))
    # any other region is swept z fastest: width 30 with x or y first
    cells = set(make_box((5, 5, 6)).cells) - {(0, 0, 0), (1, 0, 0)}
    with pytest.raises(WidthGuardExceeded, match="^profile width 30 exceeds guard 24$"):
        twist_polynomial(make_region(cells))
    with pytest.raises(InvalidRegion):
        twist_polynomial(make_box((2, 2)))


@pytest.mark.parametrize(
    "region, law",
    [
        (make_box((2, 3, 5)), {-4: 124, 0: 14072, 4: 124}),
        (make_box((3, 3, 4)), {-8: 1, -4: 4011, 0: 109781, 4: 4011, 8: 1}),
        (make_box((4, 3, 3)), {-8: 1, -4: 4011, 0: 109781, 4: 4011, 8: 1}),
        (make_box((3, 4, 4)), {-8: 3794, -4: 471336, 0: 9935084, 4: 471336, 8: 3794}),
        (make_box((2, 2, 7)), {0: 6272}),
        (make_cylinder(DISK6, 4), {-4: 4, 0: 457, 4: 4}),
    ],
    ids=["2x3x5", "3x3x4", "4x3x3", "3x4x4", "2x2x7", "cylinder"],
)
def test_twist_polynomial_values_are_pinned(region, law):
    assert twist_polynomial(region) == law


@st.composite
def twist_regions(draw):
    """A box of 2x2x2 up to 4x3x4 or 3x4x4 minus up to 4 cells, or a
    cylinder of height 2-4 over disks(), both swept z fastest; or a box of
    up to 48 cells, or a cylinder over a box disk, both swept in
    count_region's order.  Balanced, so that most have tilings."""
    kind = draw(st.sampled_from(["box minus cells", "cylinder", "box", "box cylinder"]))
    if kind == "cylinder":
        region = make_cylinder(draw(disks()), draw(st.integers(2, 4)))
    elif kind == "box minus cells":
        sides = st.tuples(*[st.integers(2, 4)] * 3)
        cells = make_box(draw(sides.filter(lambda dims: dims[0] * dims[1] <= 12))).cells
        missing = draw(st.sets(st.sampled_from(cells), max_size=4))
        region = make_region([c for c in cells if c not in missing], d=3)
    else:
        dims = draw(st.tuples(*[st.integers(1, 6)] * 3).filter(lambda dims: prod(dims) <= 48))
        if kind == "box":
            region = make_box(dims)
        else:
            region = make_cylinder(make_box(dims[:2]), dims[2])
    assume(region.balanced())
    return region


# 2x3x4 and the region from 2x4x3 are swept y first, narrower than x
# first; every tiling of 2x1x1 ends its last z-line with an x-domino's
# mark, so the mark sums there are not 0; on the region from 2x2x2, mark
# sums carried from one z-line into the next would change W.  2x3x5 is
# swept x fastest, 3x2x6 y fastest, and 2x2x8 and 1x2x30 with z most
# significant.
@settings(max_examples=100, deadline=None)
@given(twist_regions())
@example(make_box((2, 3, 4)))
@example(make_region(set(make_box((2, 4, 3)).cells) - {(0, 0, 0), (1, 3, 2)}))
@example(make_box((2, 1, 1)))
@example(make_region(set(make_box((2, 2, 2)).cells) - {(0, 0, 0), (0, 1, 0)}))
@example(make_box((3, 3, 4)))
@example(make_box((1, 2, 30)))
@example(make_box((2, 2, 8)))
@example(make_box((3, 2, 6)))
@example(make_box((2, 3, 5)))
def test_twist_polynomial_matches_the_slice_transfer(region):
    law = twist_polynomial(region)
    if region.dims:
        # a cyclic shift of a box's axes is a rotation, and keeps every
        # tiling's crossing sum (axis agreement); the transfer sweeps the
        # shift whose slices, min(L, M) * N cells, are smallest (1x2x30's
        # own have 30 cells, past the guard)
        shifts = [region.dims[s:] + region.dims[:s] for s in range(3)]
        region = make_box(min(shifts, key=lambda dims: min(dims[:2]) * dims[2]))
    assert law == twist_polynomial_by_slices(region)


@pytest.mark.parametrize(
    "disk, size, digest",
    [
        (make_box((2, 3)), 20, "8e1acdf98ae4d8e4412fde206b548884add10c75e8800ed52c12eff17e046e6f"),
        (make_box((3, 3)), 252, "196c02386b6ebe6c0230683e6f5a7de04f3acd1463da27878f528720658ca3e7"),
        (DISK6, 20, "85a6e2b1644bf8ff787d0a8dfb69248c151fee06d7fc48b289b1c3c6d3bf16b5"),
        (make_region([(0, 0), (1, 0), (3, 0), (3, 1)]), 4,
         "64b18bbbaf494bcb0b1ebfb914b4744474f0b5aa4d6db248e8dfa2b2045f6538"),
    ],
    ids=["2x3", "3x3", "six-cells", "split"],
)
def test_automaton_plug_order_and_matrix_are_pinned(disk, size, digest):
    automaton = build_automaton(disk)
    assert len(automaton.plugs) == size
    text = repr((automaton.plugs, automaton.matrix))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# A prism, one cross-section over a run of layers along the sweep, is
# counted from half of its layers; these tests check it against oracles
# that never pair two halves: the automaton's matrix walk and the
# permanent.


@st.composite
def disks(draw):
    """Up to 9 cells of a 4x3 grid, connected or not."""
    grid = [(x, y) for x in range(4) for y in range(3)]
    return make_region(draw(st.lists(st.sampled_from(grid), min_size=1, max_size=9)), d=2)


@settings(max_examples=60, deadline=None)
@given(disks(), st.integers(1, 9))
@example(make_region([(0, 0), (1, 0), (3, 0), (3, 1)]), 7)
@example(make_box((2, 3)), 9)
def test_cylinder_counts_match_the_automaton_walk_at_every_height(disk, height):
    assert count_cylinder(disk, height) == automaton_cylinder_count(disk, height)


@settings(max_examples=60, deadline=None)
@given(disks(), st.integers(1, 4))
@example(make_region([(0, 0), (1, 0), (3, 0), (4, 0)]), 2)
@example(make_region([(0, 0), (2, 0), (0, 2), (2, 2)]), 1)
def test_a_cylinder_over_any_disk_counts_as_the_product_over_its_pieces(disk, height):
    """Connected or not: count_cylinder is count_region of make_cylinder,
    the product of the automaton walks over the disk's pieces, and the
    cylinder's record reads back."""
    cylinder = make_cylinder(disk, height)
    table = disk.neighbor_table
    pieces = components(range(disk.n_cells), lambda i: [j for j in table[i] if j >= 0])
    expected = prod(
        automaton_cylinder_count(make_region([disk.cells[i] for i in piece]), height)
        for piece in pieces
    )
    assert count_cylinder(disk, height) == count_region(cylinder) == expected
    record = region_to_record(cylinder)
    assert region_from_record(record) == cylinder
    assert region_to_record(region_from_record(record)) == record


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda d: st.lists(
        st.integers(1, 3 if d < 4 else 2), min_size=d - 1, max_size=d - 1
    )),
    st.integers(1, 7),
    st.integers(0, 3),
)
@example([3], 7, 0)
@example([3, 3], 7, 2)
@example([2, 2, 2], 6, 2)
def test_box_counts_match_the_permanent_and_the_automaton_walk(others, side, at):
    """A 2D, 3D or 4D box with one side of 1-7 at any position, the others
    of 1-3 (1-2 in 4D)."""
    dims = (*others[:at], side, *others[at:])
    count = count_region(make_box(dims))
    if prod(dims) <= 24:
        assert count == permanent_count(make_box(dims))
    if len(others) > 1:
        # the same box as a cylinder of height `side` over the others
        assert count == automaton_cylinder_count(make_box(others), side)


@settings(max_examples=100, deadline=None)
@given(disks(), st.integers(0, 511), st.integers(0, 511))  # masks over up to 9 cells
@example(make_box((3, 3)), 0, 511)
@example(make_region([(0, 0), (1, 0), (3, 0), (3, 1)]), 0b0010, 0b1101)
def test_matchings_are_every_fill_of_the_free_cells(disk, covered, open_cells):
    """Each subset U of the open free cells matched above, times each
    tiling of the free cells outside U, exactly once."""
    n, cells = disk.n_cells, disk.cells
    start = [n if covered >> i & 1 else -1 for i in range(n)]
    partner = list(start)
    fills = Counter()
    for up in matchings(disk.forward, partner, open_cells):
        assert up == sum(1 << i for i in range(n) if partner[i] == n and start[i] == -1)
        pairs = frozenset(
            frozenset((cells[i], cells[j])) for i, j in enumerate(partner) if i < j < n
        )
        fills[up, pairs] += 1
    assert partner == start
    free = [i for i in range(n) if start[i] == -1]
    expected = Counter()
    for size in range(len(free) + 1):
        for up in combinations([i for i in free if open_cells >> i & 1], size):
            rest = make_region([cells[i] for i in free if i not in up], d=2)
            for tiling in naive_tilings(rest):
                expected[sum(1 << i for i in up), tiling] += 1
    assert fills == expected


L_DISK = [(x, 0) for x in range(6)] + [(0, 1)]


@pytest.mark.parametrize(
    "region",
    [
        make_region(make_box((3, 3, 3)).cells[1:]),  # a box minus a corner
        make_region(set(make_box((3, 5)).cells) - {(1, 1)}),  # minus an inner cell
        # an L-prism swept across the L: layers along x differ
        make_region([c + (z,) for c in L_DISK for z in range(2)]),
        # one cross-section, but layers {0, 1, 2} and {4}
        make_region([(x, y, z) for x in range(2) for y in range(2) for z in (0, 1, 2, 4)]),
    ],
    ids=["box-minus-corner", "rectangle-minus-inner-cell", "l-prism-across", "layers-with-a-gap"],
)
def test_regions_that_are_not_prisms_match_the_permanent(region):
    assert count_region(region) == permanent_count(region) > 0


def test_an_l_prism_swept_across_the_l_matches_the_automaton_walk():
    # at heights 2 and 3 the sweep runs along x, narrower than the
    # 7-cell L; from height 4 on it runs along z, over the prism
    disk = make_region(L_DISK)
    for height in range(2, 8):
        cylinder = make_cylinder(disk, height)
        assert (profile_width(cylinder) < disk.n_cells) == (height in (2, 3))
        assert count_region(cylinder) == automaton_cylinder_count(disk, height)
