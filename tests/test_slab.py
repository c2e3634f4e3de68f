import hashlib
import re
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from dimers.core import make_box, make_cylinder, make_region, validate
from dimers.errors import InflationError, InvalidRegion, MoveNotApplicable, RegionMismatch
from dimers.slab import (
    Slab,
    SlabFlip,
    SlabTiling,
    all_pair_twists,
    apply_slab_flip,
    enumerate_slab_tilings,
    four_color,
    horizontal_slab_tiling,
    inflate,
    list_slab_flips,
    pair_twist,
    read_slab_tilings,
    slab_flip_components,
    triple_twist,
    validate_slab_tiling,
    write_slab_tilings,
    TRIPLE_TWIST_PAIRS,
    _OTHER_PAIRS,
)
from oracles import (
    inflate_by_cells,
    pair_twist_by_cells,
    slab_cells,
    validate_slab_tiling_by_cells,
)

ALL_PAIRS = TRIPLE_TWIST_PAIRS + _OTHER_PAIRS


def test_four_color_anchor_and_periodicity():
    assert four_color((0, 0, 0)) == "R"
    for cell in product(range(4), repeat=3):
        x, y, z = cell
        assert four_color(cell) == four_color((x + 2, y, z))
        assert four_color(cell) == four_color((x, y + 2, z))
        assert four_color(cell) == four_color((x, y, z + 2))


def test_every_slab_covers_all_four_colors():
    # the structural property behind inflation, checked over every slab
    # placement in the 4x4x2 box and for every normal
    region = make_box((4, 4, 2))
    placements = 0
    for corner in region.cells:
        for normal in range(3):
            slab = Slab(corner, normal)
            cells = slab_cells(slab)
            if all(region.contains(c) for c in cells):
                placements += 1
                assert sorted(four_color(c) for c in cells) == ["B", "G", "R", "Y"]
    assert placements > 0


def test_enumerate_slab_tilings_counts():
    assert sum(1 for _ in enumerate_slab_tilings(make_box((4, 2, 2)))) == 11
    assert sum(1 for _ in enumerate_slab_tilings(make_box((4, 4, 2)))) == 165
    assert sum(1 for _ in enumerate_slab_tilings(make_box((2, 2, 2)))) == 3


def test_enumerate_slab_tilings_are_valid_and_distinct():
    seen = set()
    for tiling in enumerate_slab_tilings(make_box((4, 2, 2))):
        assert validate_slab_tiling(tiling) is None
        assert tiling.slabs not in seen
        seen.add(tiling.slabs)


def _value_or_error(f, *args):
    try:
        return f(*args)
    except InflationError as exc:
        return str(exc)


# the 12-cell L disk ####/####/##../##.. (bottom row y=0)
L_DISK = make_region([(0, 0), (1, 0), (0, 1), (1, 1)] + [(x, y) for x in range(4) for y in (2, 3)])


@pytest.mark.parametrize(
    "region, count, digests",
    [
        (make_box((4, 4, 2)), 165, (
            "ee0e539a95a31c02c6d1f5fac2722be95d74cf1ab026adcf62870b995e8a2c6c",
            "43b6bca98e4ad05a1d93e419a6bf10cb1429b2f20821737c26d61985dd6ff64c",
            "b9f18ba9e37611e6b287a787837932569e3604007b392cc432c76e04cbade597",
        )),
        (make_box((2, 4, 4)), 165, (
            "cbf933632e812445eebb25260bc75d3c461b58dda8dbdafe3cf051b9149da74e",
            "f82a6e66a08d382440e91f07ea43a2cc3fdbf3bf770f724e0cdfeef738163f83",
            "b9f18ba9e37611e6b287a787837932569e3604007b392cc432c76e04cbade597",
        )),
        (make_box((4, 2, 4)), 165, (
            "d37addcb2fb913ce3fe20cb7f0068b01a16261d8c51ac55d56ce287b47a2040b",
            "a4afe973a08784515a216ff51c6a6761569ba41cfda3b7a3186f41508ad799cf",
            "b9f18ba9e37611e6b287a787837932569e3604007b392cc432c76e04cbade597",
        )),
        # 12 of these 39 tilings have a non-integral pair twist
        (make_cylinder(L_DISK, 2), 39, (
            "ba56d189e9c4aad18fc298ae58eafd8429120ad1895ecc2c5ef94bea6c831782",
            "80f0597335c480c76d27a71b64e019ab65c1a1c779cdfdc164b2ca9bf0e3a1b2",
            "dc4f244f0cd5a5d3dfece128f13a78ecd8f03de6455575debb59cdc2f9604013",
        )),
    ],
    ids=["4x4x2", "2x4x4", "4x2x4", "L-disk-x2"],
)
def test_enumeration_flips_and_triple_twists_are_pinned(region, count, digests):
    tilings = list(enumerate_slab_tilings(region))
    assert len(tilings) == count
    values = (
        [t.slabs for t in tilings],
        [list_slab_flips(t) for t in tilings],
        [_value_or_error(triple_twist, t) for t in tilings],
    )
    assert tuple(hashlib.sha256(repr(v).encode()).hexdigest() for v in values) == digests


def _check_tables_against_cells(tilings):
    for tiling in tilings:
        for pair in ALL_PAIRS:
            inflated = _value_or_error(inflate_by_cells, tiling, pair)
            assert _value_or_error(inflate, tiling, pair) == inflated
            expected = inflated if isinstance(inflated, str) else _value_or_error(
                pair_twist_by_cells, inflated, tiling.region, pair)
            assert _value_or_error(pair_twist, tiling, pair) == expected


def _union_of_blocks(corners):
    return make_region({
        tuple(c + d for c, d in zip(corner, delta))
        for corner in corners for delta in product((0, 1), repeat=3)
    })


@pytest.mark.parametrize(
    "region",
    [make_box((4, 4, 2)), make_box((2, 4, 4)), make_box((4, 2, 4)),
     make_cylinder(L_DISK, 2), make_cylinder(L_DISK, 4),
     # no horizontal tiling, and the reference crossing sums differ by
     # pair: (R, Y) -1, (G, B) +1, else 0; and (R, G) +1, else 0
     _union_of_blocks([(2, 0, 2), (2, 2, 2), (3, 1, 2), (3, 1, 3)]),
     _union_of_blocks([(0, 1, 1), (1, 0, 1), (1, 1, 1)])],
    ids=["4x4x2", "2x4x4", "4x2x4", "L-disk-x2", "L-disk-x4", "blocks-RY", "blocks-RG"],
)
def test_table_inflation_matches_the_cell_oracle(region):
    # every pair's inflated tiling and pair twist, or the error text
    _check_tables_against_cells(enumerate_slab_tilings(region))


def _block_unions():
    corners = st.tuples(*[st.integers(0, 3)] * 3)
    return st.lists(corners, min_size=1, max_size=4).map(_union_of_blocks)


@settings(max_examples=40, deadline=None)
@given(_block_unions())
def test_table_inflation_matches_the_cell_oracle_on_block_unions(region):
    _check_tables_against_cells(islice(enumerate_slab_tilings(region, cap=None), 60))


@settings(max_examples=100, deadline=None)
@given(_block_unions(), st.data())
def test_validation_matches_the_cell_oracle(region, data):
    # slabs placed anywhere near the region: most leave it or overlap, and
    # the report must name the same first bad cell
    (lo, hi) = region.bounding_box
    corner = st.tuples(*[st.integers(a - 1, b + 1) for a, b in zip(lo, hi)])
    slabs = data.draw(st.lists(st.builds(Slab, corner, st.integers(0, 2)), max_size=8))
    tiling = SlabTiling(region, tuple(slabs))
    assert validate_slab_tiling(tiling) == validate_slab_tiling_by_cells(tiling)
    for tiling in islice(enumerate_slab_tilings(region, cap=None), 5):
        assert validate_slab_tiling(tiling) is None


_BOX_2 = make_box((2, 2, 2))


@pytest.mark.parametrize(
    "slabs, report",
    [
        ([((0, 0, 0), 2), ((0, 1, 1), 0)],
         "slab Slab(corner=(0, 1, 1), normal=0) leaves the region at (0, 1, 2)"),
        # the second slab's corner is free and its next cell is not
        ([((0, 0, 1), 2), ((0, 0, 0), 0)], "cell (0, 0, 1) covered twice"),
        ([((0, 0, 0), 2)], "4 cells uncovered"),
    ],
    ids=["leaves", "covered-twice", "uncovered"],
)
def test_validation_reports(slabs, report):
    tiling = SlabTiling(_BOX_2, tuple(Slab(*s) for s in slabs))
    assert validate_slab_tiling(tiling) == report
    for twists in (pair_twist, triple_twist, all_pair_twists):
        with pytest.raises(InflationError, match=re.escape(report)):
            twists(tiling)


def test_slab_tilings_need_3d():
    with pytest.raises(InvalidRegion):
        next(enumerate_slab_tilings(make_box((4, 4))))


def test_horizontal_slab_tiling():
    tiling = horizontal_slab_tiling(make_box((4, 4, 2)))
    assert validate_slab_tiling(tiling) is None
    assert all(s.normal == 2 for s in tiling.slabs)
    with pytest.raises(InvalidRegion):
        horizontal_slab_tiling(make_box((3, 4, 2)))


def test_inflate_produces_valid_domino_tilings():
    for dims in [(4, 2, 2), (4, 4, 2)]:
        for tiling in enumerate_slab_tilings(make_box(dims)):
            for pair in ALL_PAIRS:
                inflated = inflate(tiling, pair)
                assert validate(inflated) is None
                assert inflated.n_dominoes == len(tiling.slabs)


def test_inflate_horizontal_of_442():
    tiling = horizontal_slab_tiling(make_box((4, 4, 2)))
    inflated = inflate(tiling, ("R", "G"))
    assert validate(inflated) is None


def test_inflate_rejects_unknown_pair():
    tiling = horizontal_slab_tiling(make_box((4, 4, 2)))
    with pytest.raises(InflationError):
        inflate(tiling, ("R", "R"))
    with pytest.raises(InflationError):
        inflate(tiling, ("R", "X"))


def test_inflation_collapses_some_distinct_tilings():
    # the survivor pairs of different slabs can coincide, so inflation is
    # a well-defined but non-injective map; these counts are frozen from
    # the exhaustive sweep
    tilings = list(enumerate_slab_tilings(make_box((4, 2, 2))))
    images = {inflate(t, ("R", "G")).partner for t in tilings}
    assert len(tilings) == 11
    assert len(images) == 5

    tilings = list(enumerate_slab_tilings(make_box((4, 4, 2))))
    images = {inflate(t, ("R", "G")).partner for t in tilings}
    assert len(tilings) == 165
    assert len(images) == 36


def test_pair_twist_of_horizontal_is_zero():
    for dims in [(4, 2, 2), (4, 4, 2)]:
        tiling = horizontal_slab_tiling(make_box(dims))
        for pair in ALL_PAIRS:
            assert pair_twist(tiling, pair) == 0


def test_pair_twist_invariant_under_slab_flips():
    for dims in [(4, 2, 2), (4, 4, 2)]:
        for tiling in enumerate_slab_tilings(make_box(dims)):
            value = pair_twist(tiling, ("R", "G"))
            for move in list_slab_flips(tiling):
                assert pair_twist(apply_slab_flip(tiling, move), ("R", "G")) == value


def _mirror_y(tiling):
    height = tiling.region.dims[1]
    slabs = []
    for s in tiling.slabs:
        extent = 0 if s.normal == 1 else 1
        new_y = height - 1 - (s.corner[1] + extent)
        slabs.append(Slab((s.corner[0], new_y, s.corner[2]), s.normal))
    mirrored = SlabTiling(tiling.region, tuple(sorted(slabs, key=lambda s: (s.corner, s.normal))))
    assert validate_slab_tiling(mirrored) is None
    return mirrored


def test_pair_twist_negates_under_mirror():
    # the y-mirror fixes the pair {R, G} setwise and reverses orientation
    for tiling in enumerate_slab_tilings(make_box((4, 4, 2))):
        assert pair_twist(_mirror_y(tiling), ("R", "G")) == -pair_twist(
            tiling, ("R", "G")
        )


def test_triple_twist_horizontal_is_zero_vector():
    assert triple_twist(horizontal_slab_tiling(make_box((4, 4, 2)))) == (0, 0, 0)


def test_triple_twist_relations_hold_exhaustively():
    # complementary color pairs give opposite twists; triple_twist raises
    # if the frozen relations ever break
    for dims in [(4, 2, 2), (4, 4, 2)]:
        for tiling in enumerate_slab_tilings(make_box(dims)):
            values = all_pair_twists(tiling)
            assert values[("R", "G")] + values[("Y", "B")] == 0
            assert values[("R", "B")] + values[("G", "Y")] == 0
            assert values[("R", "Y")] + values[("G", "B")] == 0
            triple_twist(tiling)


def test_triple_twist_constant_on_flip_components():
    for dims, total in [((4, 2, 2), 11), ((4, 4, 2), 165)]:
        components = slab_flip_components(make_box(dims))
        assert sum(map(len, components)) == total
        for component in components:
            assert len({triple_twist(t) for t in component}) == 1


def test_slab_flip_census_matches_brute_force():
    # brute force: two slab tilings are flip-adjacent iff they differ in
    # exactly two slabs filling a common 2x2x2 block
    for dims, count in [((4, 2, 2), 11), ((4, 4, 2), 165)]:
        tilings = list(enumerate_slab_tilings(make_box(dims)))
        assert len(tilings) == count
        index = {t.slabs: i for i, t in enumerate(tilings)}
        bfs_edges = set()
        for i, t in enumerate(tilings):
            for move in list_slab_flips(t):
                j = index[apply_slab_flip(t, move).slabs]
                bfs_edges.add((min(i, j), max(i, j)))
        brute_edges = set()
        for i in range(len(tilings)):
            for j in range(i + 1, len(tilings)):
                diff = set(tilings[i].slabs) ^ set(tilings[j].slabs)
                if len(diff) == 4:
                    cells = sorted(c for s in diff if s in tilings[i].slabs for c in slab_cells(s))
                    other = sorted(c for s in diff if s in tilings[j].slabs for c in slab_cells(s))
                    if cells == other and len(set(cells)) == 8:
                        brute_edges.add((i, j))
        assert bfs_edges == brute_edges
        reached = {0}
        while True:
            grown = reached | {j for edge in bfs_edges if reached & set(edge) for j in edge}
            if grown == reached:
                break
            reached = grown
        assert reached == set(range(len(tilings)))


def test_stacked_slabs_flip_to_both_other_normals():
    region = make_box((2, 2, 2))
    stacked = SlabTiling(region, (Slab((0, 0, 0), 2), Slab((0, 0, 1), 2)))
    assert validate_slab_tiling(stacked) is None
    moves = list_slab_flips(stacked)
    assert {(m.from_normal, m.to_normal) for m in moves} == {(2, 0), (2, 1)}
    for move in moves:
        flipped = apply_slab_flip(stacked, move)
        assert all(s.normal == move.to_normal for s in flipped.slabs)
        back = SlabFlip(move.corner, move.to_normal, move.from_normal)
        assert apply_slab_flip(flipped, back).slabs == stacked.slabs


def test_a_slab_flip_equals_removing_and_adding_its_pairs_and_sorting():
    def pair(corner, normal):
        upper = tuple(x + (k == normal) for k, x in enumerate(corner))
        return {Slab(corner, normal), Slab(upper, normal)}

    region = make_box((4, 4, 2))
    for tiling in enumerate_slab_tilings(region):
        for move in list_slab_flips(tiling):
            present = set(tiling.slabs)
            present -= pair(move.corner, move.from_normal)
            present |= pair(move.corner, move.to_normal)
            expected = tuple(sorted(present))
            assert apply_slab_flip(tiling, move).slabs == expected
            # a tiling read from a file may list its slabs in any order
            shuffled = SlabTiling(region, tiling.slabs[::-1])
            assert apply_slab_flip(shuffled, move).slabs == expected


def test_apply_slab_flip_rejects_missing_pair():
    region = make_box((2, 2, 2))
    stacked = SlabTiling(region, (Slab((0, 0, 0), 2), Slab((0, 0, 1), 2)))
    with pytest.raises(MoveNotApplicable):
        apply_slab_flip(stacked, SlabFlip((0, 0, 0), 0, 1))


@pytest.mark.parametrize("to_normal", [2, 3, -1], ids=["same", "three", "minus-one"])
def test_apply_slab_flip_rejects_a_bad_target_normal(to_normal):
    region = make_box((2, 2, 2))
    stacked = SlabTiling(region, (Slab((0, 0, 0), 2), Slab((0, 0, 1), 2)))
    with pytest.raises(MoveNotApplicable, match=f"no flip from normal 2 to {to_normal}"):
        apply_slab_flip(stacked, SlabFlip((0, 0, 0), 2, to_normal))


def test_slab_file_roundtrip(tmp_path):
    region = make_box((4, 2, 2))
    tilings = list(enumerate_slab_tilings(region))
    path = tmp_path / "slabs.jsonl"
    assert write_slab_tilings(path, region, tilings) == 11
    back_region, back = read_slab_tilings(path)
    assert back_region == region
    assert [t.slabs for t in back] == [t.slabs for t in tilings]
    # like domino files, a slab file holds only tilings of its header region
    with pytest.raises(RegionMismatch):
        write_slab_tilings(path, make_box((2, 2, 4)), tilings)
