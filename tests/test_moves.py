from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from dimers.core import (
    Domino,
    Tiling,
    base_vertical_tiling,
    decode,
    encode,
    make_box,
    make_region,
    tiling_from_dominoes,
    validate,
)
from dimers.errors import CalibrationError, MoveNotApplicable
from dimers.explore import enumerate_tilings, flip_free_tilings
from dimers.moves import (
    FlipMove,
    apply_flip,
    apply_trit,
    list_flips,
    list_trits,
    trit_neighbors,
)
from dimers.twist import twist

from oracles import (
    apply_trit_structural,
    naive_flip_neighbors,
    naive_tilings,
    naive_trit_neighbors,
    tiling_to_pairset,
)


def test_list_flips_on_base_vertical_332():
    # brute-force window scan: adjacent vertical pairs over the 3x3 footprint
    flips = list_flips(base_vertical_tiling(make_box((3, 3, 2))))
    assert len(flips) == 12


def test_flip_free_tilings_admit_no_flips():
    for t in flip_free_tilings(make_box((3, 3, 2))):
        assert list_flips(t) == []


def test_2d_2x2_box_has_exactly_one_flip():
    for t in enumerate_tilings(make_box((2, 2))):
        assert len(list_flips(t)) == 1


def test_apply_flip_is_involutive_and_valid():
    t = base_vertical_tiling(make_box((3, 3, 2)))
    for move in list_flips(t):
        flipped = apply_flip(t, move)
        assert validate(flipped) is None
        changed = sum(1 for a, b in zip(t.partner, flipped.partner) if a != b)
        assert changed == 4
        reverse = FlipMove(move.corner, move.axes, move.after_axis)
        assert reverse in list_flips(flipped)
        assert apply_flip(flipped, reverse) == t


def test_flip_closure_exhaustive_on_222():
    for t in enumerate_tilings(make_box((2, 2, 2))):
        for move in list_flips(t):
            flipped = apply_flip(t, move)
            reverse = FlipMove(move.corner, move.axes, move.after_axis)
            assert reverse in list_flips(flipped)
            assert apply_flip(flipped, reverse) == t


def test_apply_flip_rejects_stale_move():
    t = base_vertical_tiling(make_box((3, 3, 2)))
    move = list_flips(t)[0]
    other = apply_flip(t, move)
    with pytest.raises(MoveNotApplicable):
        apply_flip(other, move)


def test_flip_graph_of_222_is_connected():
    region = make_box((2, 2, 2))
    tilings = list(enumerate_tilings(region))
    index = {encode(t): i for i, t in enumerate(tilings)}
    seen = {0}
    stack = [tilings[0]]
    while stack:
        current = stack.pop()
        for move in list_flips(current):
            j = index[encode(apply_flip(current, move))]
            if j not in seen:
                seen.add(j)
                stack.append(tilings[index[encode(current)]])
                stack.append(apply_flip(current, move))
    assert len(seen) == len(tilings) == 9


def test_list_trits_empty_cases():
    assert list_trits(base_vertical_tiling(make_box((3, 3, 2)))) == []
    assert list_trits(base_vertical_tiling(make_box((4, 4, 4)))) == []
    for t in enumerate_tilings(make_box((2, 2, 2))):
        assert list_trits(t) == []
    # 2D tilings report no trits rather than erroring
    for t in enumerate_tilings(make_box((2, 3))):
        assert list_trits(t) == []


def test_flip_free_tilings_of_332_have_trits():
    free = flip_free_tilings(make_box((3, 3, 2)))
    assert len(free) == 2
    for t in free:
        assert len(list_trits(t)) >= 1


def test_trit_windows_never_hold_two_parallel_dominoes():
    for t in enumerate_tilings(make_box((3, 3, 2))):
        for move in list_trits(t):
            axes = [d.axis for d in move.removed]
            assert sorted(axes) == sorted(move.axes)
            assert len(set(axes)) == 3


def test_apply_trit_involution_with_opposite_signs():
    region = make_box((3, 3, 2))
    for t in enumerate_tilings(region):
        for move in list_trits(t):
            after, sign = apply_trit(t, move)
            assert validate(after) is None
            assert sign in (1, -1)
            back_moves = [
                m for m in list_trits(after) if m.corner == move.corner and m.axes == move.axes
            ]
            assert len(back_moves) == 1
            restored, back_sign = apply_trit(after, back_moves[0])
            assert restored == t
            assert sign + back_sign == 0


def test_trit_signs_step_twist_by_one_on_332():
    for t in enumerate_tilings(make_box((3, 3, 2))):
        for move in list_trits(t):
            after, sign = apply_trit(t, move)
            assert twist(after) - twist(t) == sign


def _mirror_x(tiling):
    region = tiling.region
    L = region.dims[0]
    dominoes = []
    for low, axis in tiling.dominoes():
        high = low[:axis] + (low[axis] + 1,) + low[axis + 1 :]
        m0 = (L - 1 - low[0],) + low[1:]
        m1 = (L - 1 - high[0],) + high[1:]
        dominoes.append(Domino(min(m0, m1), axis))
    return tiling_from_dominoes(region, dominoes)


def test_trit_signs_antisymmetric_under_mirror():
    region = make_box((3, 3, 2))
    for t in enumerate_tilings(region):
        trits = list_trits(t)
        if not trits:
            continue
        mirrored = _mirror_x(t)
        signs = sorted(apply_trit(t, m)[1] for m in trits)
        mirror_signs = sorted(apply_trit(mirrored, m)[1] for m in list_trits(mirrored))
        assert mirror_signs == sorted(-s for s in signs)


def test_enumeration_matches_naive_oracle_on_small_regions():
    for region in (
        make_box((2, 2, 2)),
        make_region([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]),
    ):
        ours = {tiling_to_pairset(t) for t in enumerate_tilings(region)}
        oracle = set(naive_tilings(region))
        assert ours == oracle


@st.composite
def small_regions(draw, d):
    """A box of at most 16 cells, or a connected set of up to 16 cells
    grown one face-neighbour at a time from one cell or from a block of
    side 2, which in 4D is a 2x2x2 cube (trits need such a cube)."""
    kind = draw(st.sampled_from(["box", "cell", "block"]))
    if kind == "box":
        side = {2: 8, 3: 4, 4: 3}[d]
        dims = draw(
            st.tuples(*[st.integers(1, side)] * d).filter(lambda dims: prod(dims) <= 16)
        )
        return make_box(dims)
    if kind == "cell":
        cells = [(0,) * d]
    else:
        cells = [
            tuple(1 + x for x in deltas) + (1,) * (d - 3)
            for deltas in product((0, 1), repeat=min(d, 3))
        ]
    size = draw(st.integers(len(cells) // 2, 8)) * 2
    while len(cells) < size:
        frontier = sorted(
            {
                c[:k] + (c[k] + s,) + c[k + 1 :]
                for c in cells
                for k in range(d)
                for s in (1, -1)
                if c[k] + s >= 0
            }
            - set(cells)
        )
        cells.append(draw(st.sampled_from(frontier)))
    return make_region(cells)


def _check_moves_against_naive_oracle_and_undo(region):
    for t in enumerate_tilings(region):
        pairs = tiling_to_pairset(t)
        flips = list_flips(t)
        flipped = [apply_flip(t, m) for m in flips]
        assert len(flips) == len(set(flips))
        assert {tiling_to_pairset(f) for f in flipped} == naive_flip_neighbors(pairs)
        for move, after in zip(flips, flipped):
            reverse = FlipMove(move.corner, move.axes, move.after_axis)
            assert apply_flip(after, reverse) == t
        trits = list_trits(t)
        tritted = [Tiling(region, after) for after, _, _ in trit_neighbors(region, t.partner)]
        assert tritted == [apply_trit_structural(t, m) for m in trits]
        assert len(trits) == len(set(trits))
        assert {tiling_to_pairset(a) for a in tritted} == naive_trit_neighbors(
            pairs, region
        )
        for move, after in zip(trits, tritted):
            (back,) = [
                m for m in list_trits(after)
                if m.corner == move.corner and m.axes == move.axes
            ]
            assert apply_trit_structural(after, back) == t


# random regions this small rarely admit a trit, so three that do are
# always checked: two orientations of the 3x3x2 box and a general region
@settings(max_examples=40, deadline=None)
@given(small_regions(3))
@example(make_box((3, 3, 2)))
@example(make_box((2, 3, 3)))
@example(make_region([*make_box((3, 3, 2)).cells, (3, 0, 0), (3, 0, 1)]))
def test_moves_match_naive_oracle_and_undo(region):
    _check_moves_against_naive_oracle_and_undo(region)


# in 4D the white cell a trit leaves out of its cube is matched to one of
# up to five neighbours outside it; both boxes always run, and in 3x2x2x2
# the middle layer's cubes have such neighbours on both sides
@settings(max_examples=10, deadline=None)
@given(small_regions(4))
@example(make_box((2, 2, 2, 2)))
@example(make_box((3, 2, 2, 2)))
def test_moves_match_naive_oracle_and_undo_in_4d(region):
    _check_moves_against_naive_oracle_and_undo(region)


def test_apply_trit_rejects_a_trit_that_does_not_step_the_twist_by_one():
    # on this general region the pairwise delta of one trit is 5/4, so the
    # formula's trit sign is undefined there and must not be rounded
    box = make_box((3, 3, 4))
    region = make_region([c for c in box.cells if c not in {(2, 2, 3), (2, 1, 3)}])
    t = decode(bytes.fromhex("80046d189b0061157652b2891d"), region)
    (move,) = [m for m in list_trits(t) if m.corner == (1, 0, 1)]
    with pytest.raises(CalibrationError, match="5/4"):
        apply_trit(t, move)
