import hashlib
import sqlite3
import tempfile
import time
from collections import Counter
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dimers.core import Tiling, decode, encode, make_box, make_cylinder, make_region, validate
from dimers.counting import count_region
from dimers.errors import CapExceeded, DimersError, InvalidRegion
from dimers.explore import (
    ComponentCensus,
    ComponentTritGraph,
    DiskBackedSet,
    _component_keys,
    _fixed_polyominoes,
    _hole_free,
    component_trit_graph,
    components,
    enumerate_tilings,
    flip_components,
    flip_components_extended,
    flip_connected,
    flip_connected_2d,
    flip_free_tilings,
    iter_free_simply_connected_polyominoes,
    tw_max,
    twist_census,
)
from dimers.moves import flip_neighbors, list_flips
from dimers.twist import pfaffian_alternating_sum

from oracles import (
    flip_component_members,
    flip_components_by_difference,
    free_simply_connected_polyominoes_by_growth,
    simply_connected_by_flood_fill,
    twist_census_by_enumeration,
)
from test_moves import small_regions as grown_regions


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_tilings(make_box((3, 3, 2)))) == 229
    assert sum(1 for _ in enumerate_tilings(make_box((2, 2, 2)))) == 9
    assert sum(1 for _ in enumerate_tilings(make_box((1, 1, 2)))) == 1


def test_enumerate_is_deterministic_and_duplicate_free():
    region = make_box((2, 2, 4))
    first = [encode(t) for t in enumerate_tilings(region)]
    second = [encode(t) for t in enumerate_tilings(region)]
    assert first == second
    assert len(first) == len(set(first)) == 121


DISK6 = make_region([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (1, 2)])


@pytest.mark.parametrize(
    "region, count, digest",
    [
        (make_box((2, 3, 4)), 1845, "8082533a27d92efc80f9435d5b4188b5319d59ee48b4d5b45403a358eb8b59cd"),
        (make_box((3, 3, 2)), 229, "9b5c416e4d98fe48e6e7de08df1b73696a70bef7a3be75e42ac80a89d376ceae"),
        (make_box((2, 2, 2, 2)), 272, "28fe86a4c64f68288db1285929e4297a97307d9821b65d47c0673e78afff01ae"),
        (make_box((4, 5)), 95, "fdc1c9b3c7a7c718f303a94419d0f7c7ddf2b5b1521263c6157d41f4ad644107"),
        (make_cylinder(DISK6, 4), 465, "e77aa67d721c0af9a77a350ef51ba06b1e66d97ad3a2f76085c7a89a2dddc7ae"),
        (make_region([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1)]), 2,
         "092513925aa2e402d4cbab55a638559b2f004043224cbcf817ef70d76f490249"),
    ],
    ids=["2x3x4", "3x3x2", "2x2x2x2", "4x5", "cylinder", "general-3d"],
)
def test_enumeration_order_is_pinned(region, count, digest):
    partners = [t.partner for t in enumerate_tilings(region)]
    assert len(partners) == count
    assert hashlib.sha256(repr(partners).encode()).hexdigest() == digest


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_tilings(make_box((3, 3, 2)), cap=100))
    assert sum(1 for _ in enumerate_tilings(make_box((3, 3, 2)), cap=None)) == 229


def test_flip_components_332():
    census = flip_components(make_box((3, 3, 2)))
    assert census.sizes == [227, 1, 1]
    assert census.total == 229
    assert census.multiplicity == {227: 1, 1: 2}
    # the two singleton components are exactly the flip-free tilings
    singleton_reps = {rep for size, rep in census.components if size == 1}
    free = {encode(t) for t in flip_free_tilings(make_box((3, 3, 2)))}
    assert singleton_reps == free


def test_flip_components_222():
    census = flip_components(make_box((2, 2, 2)))
    assert census.sizes == [9]


def test_component_representatives_decode_and_validate():
    census = flip_components(make_box((3, 3, 2)))
    for comp_id, (size, rep) in enumerate(census.components):
        t = census.representative(comp_id)
        assert validate(t) is None
        assert encode(t) == rep


def test_flip_free_tilings_counts():
    assert len(flip_free_tilings(make_box((3, 3, 2)))) == 2
    assert len(flip_free_tilings(make_box((2, 2, 2)))) == 0


def test_component_trit_graph_332():
    graph = component_trit_graph(make_box((3, 3, 2)))
    assert len(graph.census.components) == 3
    assert graph.is_connected()
    assert sorted(graph.twists) == [-1, 0, 1]
    # the large component sits at twist 0; singletons attach to it by trits
    assert graph.twists[0] == 0
    assert graph.edges == {(0, 1), (0, 2)}
    for a, b in graph.edges:
        assert abs(graph.twists[a] - graph.twists[b]) == 1


def test_trit_graph_connectivity_reads_each_stored_edge_both_ways():
    # edges are stored as (a, b) with a < b, so 0 reaches 1 only via 2
    census = ComponentCensus(make_box((2, 2, 2)), [(1, b""), (1, b""), (1, b"")])
    assert ComponentTritGraph(census, None, {(0, 2), (1, 2)}).is_connected()
    assert not ComponentTritGraph(census, None, {(0, 2)}).is_connected()


def test_components_of_a_hand_built_symmetric_graph():
    graph = {"a": "d", "b": "d", "e": "", "c": "f", "d": "ab", "f": "c"}
    assert all(s in graph[t] for s in graph for t in graph[s])
    # a's walk finds d (index 4) before b (index 1); e is isolated
    assert components(graph, graph.__getitem__) == [[0, 1, 4], [2], [3, 5]]


def test_twist_census_332():
    census = twist_census(make_box((3, 3, 2)))
    assert census == {-1: 1, 0: 227, 1: 1}
    assert sum(census.values()) == 229
    assert census == {-k: v for k, v in census.items()}  # mirror symmetry


def test_twist_census_222_point_mass():
    assert twist_census(make_box((2, 2, 2))) == {0: 9}


def test_twist_census_outside_3d_without_a_cap():
    # the exact count decides: no tiling, so no twist to be undefined
    assert twist_census(make_box((3, 3))) == {}
    with pytest.raises(InvalidRegion, match="d=3 only"):
        twist_census(make_box((2, 2)))


def test_alternating_sum_matches_pfaffian():
    region = make_box((3, 3, 2))
    census = twist_census(region)
    alternating = sum(count * (-1) ** value for value, count in census.items())
    assert abs(alternating) == abs(pfaffian_alternating_sum(region)) == 225


def test_tw_max_values_and_bound():
    assert tw_max(make_box((2, 2, 2))) == 0
    assert tw_max(make_box((3, 3, 2))) == 1
    for dims in [(2, 2, 2), (3, 3, 2), (2, 2, 4)]:
        l, m, n = dims
        assert tw_max(make_box(dims)) / (l * m * n * min(dims)) <= 1 / 16


def test_tw_max_334():
    census = twist_census(make_box((3, 3, 4)))
    assert census == {-2: 1, -1: 4011, 0: 109781, 1: 4011, 2: 1}
    assert tw_max(make_box((3, 3, 4))) == 2
    assert 2 / (3 * 3 * 4 * 3) <= 1 / 16


def _alternating(census):
    return sum(count * (-1) ** (value % 2) for value, count in census.items())


def test_twist_census_344_beyond_the_cap():
    # more tilings than enumeration's cap, but the census enumerates none
    region = make_box((3, 4, 4))
    with pytest.raises(CapExceeded):
        next(enumerate_tilings(region))
    census = twist_census(region)
    assert census == {-2: 3794, -1: 471336, 0: 9935084, 1: 471336, 2: 3794}
    assert sum(census.values()) == count_region(region) == 10_885_344
    assert abs(_alternating(census)) == abs(pfaffian_alternating_sum(region))
    assert tw_max(region) == 2
    assert tw_max(make_box((2, 4, 6))) == 2


@pytest.mark.extended
def test_twist_census_444():
    region = make_box((4, 4, 4))
    t0 = time.perf_counter()
    census = twist_census(region)
    assert time.perf_counter() - t0 < 30.0
    assert census == {
        -4: 18, -3: 15_144, -2: 8_955_822, -1: 310_188_792, 0: 4_413_212_553,
        1: 310_188_792, 2: 8_955_822, 3: 15_144, 4: 18,
    }
    assert sum(census.values()) == count_region(region) == 5_051_532_105
    assert abs(_alternating(census)) == abs(pfaffian_alternating_sum(region)) == 3_810_716_361
    assert max(census) == 4
    assert max(census) / (4 * 4 * 4 * 4) <= 1 / 16


_BOX_334 = make_box((3, 3, 4)).cells


def _census_or_error(census, region):
    try:
        return census(region)
    except DimersError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 3, 2]).flatmap(grown_regions))
@example(make_box((3, 3, 2)))
@example(make_box((2, 3, 4)))
@example(make_box((2, 3, 5)))
# the pairwise sum is not integral on these two, so both routes raise
@example(make_region([c for c in _BOX_334 if c not in {(2, 2, 3), (2, 1, 3)}]))
@example(make_region([c for c in _BOX_334 if c not in {(0, 0, 0), (1, 0, 0)}]))
def test_twist_census_matches_the_enumeration_oracle(region):
    assert _census_or_error(twist_census, region) == _census_or_error(
        twist_census_by_enumeration, region
    )


def test_census_csv(tmp_path):
    census = flip_components(make_box((3, 3, 2)))
    path = tmp_path / "census.csv"
    from dimers.explore import census_csv

    census_csv(census, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "component_id,size,twist,representative_hex"
    assert len(lines) == 4
    comp_id, size, twist_value, rep_hex = lines[1].split(",")
    assert (comp_id, size, twist_value) == ("0", "227", "0")
    assert decode(bytes.fromhex(rep_hex), make_box((3, 3, 2)))


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2, 2)])
def test_component_trit_graph_outside_3d_has_no_twists(tmp_path, dims):
    from dimers.explore import census_csv

    graph = component_trit_graph(make_box(dims))
    assert graph.census.sizes == flip_components(make_box(dims)).sizes
    assert graph.twists is None
    with pytest.raises(InvalidRegion, match="d=3 only"):
        census_csv(graph.census, tmp_path / "census.csv")


@pytest.mark.parametrize("dims", [(3, 3, 2), (2, 3, 4)])
def test_census_csv_twists_are_the_trit_graph_twists(tmp_path, dims):
    # flips keep the twist, so each representative carries its component's
    from dimers.explore import census_csv

    region = make_box(dims)
    graph = component_trit_graph(region)
    census_csv(flip_components(region), tmp_path / "census.csv")
    rows = (tmp_path / "census.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == graph.twists


def test_disk_backed_set_insert_once(tmp_path):
    s = DiskBackedSet(tmp_path / "seen.sqlite")
    assert s.add_new([b"abc"]) == [b"abc"]
    assert s.add_new([b"abc"]) == []
    assert s.known([b"abc", b"xyz"]) == {b"abc"}
    s.close()
    # reopening keeps the keys
    s2 = DiskBackedSet(tmp_path / "seen.sqlite")
    assert s2.add_new([b"abc"]) == []
    assert s2.add_new([b"xyz"]) == [b"xyz"]
    assert s2.known([b"abc", b"xyz"]) == {b"abc", b"xyz"}
    s2.close()


def test_disk_backed_set_add_new_returns_the_new_keys_in_input_order(tmp_path):
    s = DiskBackedSet(tmp_path / "seen.sqlite")
    assert s.add_new([b"b"]) == [b"b"]
    # more keys than one membership query takes
    keys = [bytes([k]) for k in range(200, 0, -1)]
    assert s.add_new(keys) == [key for key in keys if key != b"b"]
    assert s.add_new([b"b", b"zz", b"\x05"]) == [b"zz"]
    assert s.add_new([]) == []
    assert s.known([*keys, b"b", b"zz", b"y"]) == {*keys, b"b", b"zz"}
    s.close()
    # reopening keeps the keys
    s2 = DiskBackedSet(tmp_path / "seen.sqlite")
    assert s2.add_new([b"zz", b"new", b"\xc8"]) == [b"new"]
    assert s2.known([b"new", b"\xc9", b"b"]) == {b"new", b"b"}
    assert s2.add_new([b"new"]) == []
    s2.close()


def test_disk_backed_set_raises_a_sqlite_error_as_a_dimers_error(tmp_path):
    with pytest.raises(DimersError, match="unable to open database file"):
        DiskBackedSet(tmp_path / "missing" / "seen.sqlite")
    (tmp_path / "seen.sqlite").write_text("not a database, " * 8)
    with pytest.raises(DimersError, match="file is not a database"):
        DiskBackedSet(tmp_path / "seen.sqlite")


def test_disk_backed_set_commits_every_few_inserts(tmp_path, monkeypatch):
    monkeypatch.setattr("dimers.explore._COMMIT_EVERY", 3)
    s = DiskBackedSet(tmp_path / "seen.sqlite")
    reader = sqlite3.connect(tmp_path / "seen.sqlite")

    def committed():
        return sorted(key for (key,) in reader.execute("SELECT key FROM seen"))

    s.add_new([b"a", b"b"])
    assert committed() == []
    # the batch that brings the inserts to three commits, before close()
    s.add_new([b"b", b"c", b"d"])
    assert committed() == [b"a", b"b", b"c", b"d"]
    s.add_new([b"e"])
    assert committed() == [b"a", b"b", b"c", b"d"]
    s.add_new([b"f", b"g"])
    assert committed() == [b"a", b"b", b"c", b"d", b"e", b"f", b"g"]
    s.add_new([b"h"])
    s.close()
    assert committed() == [b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"h"]
    reader.close()
    # an extended census that commits many times equals the in-memory one
    region = make_box((2, 3, 4))
    extended = flip_components_extended(region, tmp_path)
    assert extended.components == flip_components(region).components


def test_extended_census_matches_in_memory(tmp_path):
    region = make_box((3, 3, 2))
    extended = flip_components_extended(region, tmp_path)
    in_memory = flip_components(region)
    assert extended.sizes == in_memory.sizes
    assert [rep for _, rep in extended.components] == [
        rep for _, rep in in_memory.components
    ]


@st.composite
def boxes_minus_cells(draw):
    """A box of 2 to 4 dimensions and at most 24 cells, less up to four
    of its cells, with as many black as white cells left."""
    d = draw(st.integers(2, 4))
    dims = draw(st.tuples(*[st.integers(2, 6)] * d).filter(lambda dims: prod(dims) <= 24))
    box = make_box(dims)
    cut = draw(st.sets(st.sampled_from(box.cells), max_size=min(4, box.n_cells - 1)))
    region = make_region([c for c in box.cells if c not in cut], d=d) if cut else box
    assume(region.balanced)
    return region


def _naive_flip_census(region):
    """(size, least encoding, every encoding) of each flip component by
    the naive oracle, largest first, ties by the least encoding.  The
    least is taken over bytes, as flip_components names representatives."""
    found = []
    for group in flip_component_members(region):
        keys = set()
        for pairset in group:
            partner = [0] * region.n_cells
            for pair in pairset:
                i, j = (region.index[cell] for cell in pair)
                partner[i], partner[j] = j, i
            keys.add(encode(Tiling(region, tuple(partner))))
        found.append((len(keys), min(keys), keys))
    return sorted(found, key=lambda component: (-component[0], component[1]))


# on 3x2x2 a component's least encoding as bytes is neither its seed's
# nor the least as an integer
@settings(max_examples=60, deadline=None)
@given(boxes_minus_cells())
@example(make_box((3, 2, 2)))
def test_flip_walk_matches_the_naive_flip_graph_on_random_regions(region):
    expected = _naive_flip_census(region)
    census = flip_components(region)
    assert census.components == [(size, least) for size, least, _ in expected]
    # a walk from each representative reaches exactly its component
    for comp_id, (_, _, keys) in enumerate(expected):
        assert _component_keys(census.representative(comp_id)) == keys
    assert flip_connected(region) == (len(expected) <= 1)


@settings(max_examples=60, deadline=None)
@given(boxes_minus_cells())
@example(make_box((3, 2, 2)))
def test_both_visited_sets_match_the_naive_oracle_on_random_regions(region):
    expected = [(size, least) for size, least, _ in _naive_flip_census(region)]
    with tempfile.TemporaryDirectory() as scratch:
        assert flip_components_extended(region, scratch).components == expected
    assert flip_components(region).components == expected


def test_extended_census_rerun_returns_the_stored_census(tmp_path):
    region = make_box((3, 3, 2))
    first = flip_components_extended(region, tmp_path)
    second = flip_components_extended(region, tmp_path)
    assert first.sizes == second.sizes == [227, 1, 1]
    assert first.components == second.components


def test_extended_census_refuses_an_unfinished_visited_set(tmp_path):
    region = make_box((2, 2, 2))
    visited = DiskBackedSet(tmp_path / "visited.sqlite")
    visited.add_new([encode(next(enumerate_tilings(region)))])
    visited.close()
    with pytest.raises(DimersError, match="unfinished"):
        flip_components_extended(region, tmp_path)
    # a finished census of another region is refused the same way
    other = tmp_path / "other"
    other.mkdir()
    flip_components_extended(region, other)
    with pytest.raises(DimersError, match="different"):
        flip_components_extended(make_box((2, 2, 4)), other)


def test_polyomino_counts_match_literature():
    shapes = free_simply_connected_polyominoes_by_growth(10)
    counts = Counter(map(len, shapes))
    # OEIS A000104, polyominoes without holes: the free counts
    # 1,1,2,5,12,35,108,369,1285,4655 less 1, 6, 37 and 195 holey shapes
    assert [counts[n] for n in range(1, 11)] == [1, 1, 2, 5, 12, 35, 107, 363, 1248, 4460]
    # the sweep yields each even shape once, and no odd one
    swept = list(iter_free_simply_connected_polyominoes(10))
    assert len(swept) == len(set(swept)) == 1 + 5 + 35 + 363 + 4460
    assert set(swept) == {shape for shape in shapes if len(shape) % 2 == 0}


def test_euler_hole_test_agrees_with_the_flood_fill():
    shift = 9 .bit_length()
    holey = Counter()
    for cells in _fixed_polyominoes(9):
        x0 = min(x for x, _ in cells)  # y >= 0 already
        shape = [(x - x0) << shift | y for x, y in cells]
        hole_free = _hole_free(shape, 1 << shift)
        assert hole_free == simply_connected_by_flood_fill(cells), cells
        holey[len(cells)] += not hole_free
    # the holey heptomino in its 4 orientations; the six holey octominoes
    # in 41, as the 3x3 ring has 1 and the other five 8 each
    assert [holey[n] for n in range(1, 10)] == [0, 0, 0, 0, 0, 0, 4, 41, 272]


@pytest.mark.parametrize(
    "digest",
    ["c28228200c22fb78c01433ca5a1e96054bb311cb31cb5cce74d02cf976b03372"],
    ids=["even"],
)
def test_polyomino_representatives_and_their_order_are_pinned(digest):
    shapes = list(iter_free_simply_connected_polyominoes(10))
    assert hashlib.sha256(repr(shapes).encode()).hexdigest() == digest


def test_flip_connected_2d_agrees_with_library_bfs():
    cells = tuple((x, y) for x in range(3) for y in range(2))
    assert flip_connected_2d(cells)
    region = make_region(list(cells))
    tilings = list(enumerate_tilings(region))
    assert len(tilings) == 3
    assert all(len(list_flips(t)) >= 1 for t in tilings)


def test_thurston_small_regions_flip_connected():
    for cells in iter_free_simply_connected_polyominoes(8):
        if sum(1 if (x + y) % 2 == 0 else -1 for x, y in cells) == 0:
            assert flip_connected_2d(cells)


@st.composite
def small_regions(draw):
    """A connected set of at most 12 cells in d=2 or d=3, grown one
    face-neighbour at a time from one cell."""
    d = draw(st.sampled_from([2, 3]))
    size = draw(st.integers(1, 6)) * 2
    cells = [(0,) * d]
    while len(cells) < size:
        frontier = sorted(
            {
                c[:k] + (c[k] + step,) + c[k + 1 :]
                for c in cells
                for k in range(d)
                for step in (1, -1)
            }
            - set(cells)
        )
        cells.append(draw(st.sampled_from(frontier)))
    low = [min(c[k] for c in cells) for k in range(d)]
    return make_region([tuple(x - m for x, m in zip(c, low)) for c in cells])


@settings(max_examples=40, deadline=None)
@given(small_regions())
@example(make_box((3, 3, 2)))
@example(make_region([(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]))
def test_flip_components_agree_with_the_four_cell_oracle(region):
    expected = flip_components_by_difference(region)
    partners = [t.partner for t in enumerate_tilings(region)]
    found = components(partners, lambda p: flip_neighbors(region, p))
    assert sorted(map(len, found), reverse=True) == expected
    assert flip_components(region).sizes == expected
    assert flip_connected(region) == (len(expected) <= 1)
