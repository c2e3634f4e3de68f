import json
import pickle
import re
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dimers.core import (
    Domino,
    Region,
    Tiling,
    base_vertical_tiling,
    color_sign,
    decode,
    encode,
    flip_steps,
    make_box,
    make_cylinder,
    make_region,
    open_records,
    pair_dominoes,
    read_tilings,
    refine_region,
    refine_tiling,
    add_vertical_floors,
    region_from_record,
    region_to_record,
    render_floors,
    tiling_from_dominoes,
    tiling_from_record,
    validate,
    write_tilings,
)
from dimers.errors import (
    DecodeError,
    DimersError,
    InvalidRegion,
    InvalidTiling,
    NoBaseTiling,
    RegionMismatch,
)
from dimers.explore import enumerate_tilings
from dimers.moves import apply_flip, flip_windows, list_flips

from oracles import parse_floors, refine_tiling_by_cells, render_floors_by_cell
from test_moves import small_regions


def test_make_box_parity_counts():
    r = make_box((3, 3, 2))
    assert r.n_cells == 18
    assert r.white_count == 9
    assert r.black_count == 9

    r2 = make_box((2, 2))
    assert r2.n_cells == 4 and r2.d == 2

    r3 = make_box((4, 4, 8))
    assert r3.n_cells == 128
    assert r3.balanced()


def test_make_box_rejects_bad_dims():
    with pytest.raises(InvalidRegion):
        make_box((0, 3))
    with pytest.raises(InvalidRegion):
        make_box((5,))


def test_color_sign_convention():
    assert color_sign((0, 0, 0)) == 1  # white
    assert color_sign((1, 0, 0)) == -1
    for r in (make_box((3, 3, 2)), make_box((2, 3))):
        assert sum(color_sign(c) for c in r.cells) == r.white_count - r.black_count


def test_make_cylinder_matches_box():
    disk = make_box((3, 3))
    cyl = make_cylinder(disk, 2)
    assert cyl.cells == make_box((3, 3, 2)).cells
    assert cyl == make_box((3, 3, 2)) and cyl.dims == (3, 3, 2)


def test_make_cylinder_l_shaped_disk():
    disk = make_region([(0, 0), (1, 0), (2, 0), (0, 1)])
    cyl = make_cylinder(disk, 3)
    assert cyl.n_cells == 12


def test_make_cylinder_unbalanced_is_constructible():
    disk = make_region([(0, 0), (1, 0), (2, 0)])  # odd cell count
    cyl = make_cylinder(disk, 3)
    assert cyl.n_cells == 9
    assert not cyl.balanced()


def test_make_cylinder_rejects_bad_input():
    disk = make_box((2, 2))
    for height in (0, -1):
        with pytest.raises(InvalidRegion, match=f"^cylinder height must be >= 1, got {height}$"):
            make_cylinder(disk, height)


@pytest.mark.parametrize(
    "cells",
    [[(0, 0), (2, 0)], [(0, 0), (1, 1)], [(0, 0), (1, 0), (0, 1), (2, 1)],
     [(0, 0), (1, 0), (1, 1), (2, 1)]],
    ids=["gap", "corner", "split-l", "connected"],
)
def test_make_cylinder_takes_any_disk(cells):
    disk = make_region(cells)
    cylinder = make_cylinder(disk, 2)
    assert cylinder.prism == (disk.cells, 2) and cylinder.dims is None
    assert cylinder.cells == tuple(sorted(c + (z,) for c in cells for z in range(2)))
    assert region_from_record(region_to_record(cylinder)) == cylinder


def test_a_region_refuses_cells_that_are_unsorted_repeated_or_negative():
    # a negative cell would give its bounding box from the origin as dims,
    # and unsorted cells a second region of the same cells
    cases = {
        ((-1, 0), (0, 1)): r"^cell \(-1, 0\) has a negative coordinate$",
        ((0, 1), (0, 0)): r"^cells \(0, 1\) and \(0, 0\) are not sorted and distinct$",
        ((0, 0), (0, 0)): r"^cells \(0, 0\) and \(0, 0\) are not sorted and distinct$",
    }
    for cells, message in cases.items():
        with pytest.raises(InvalidRegion, match=message):
            Region(2, cells)
    with pytest.raises(InvalidRegion, match="negative"):
        make_region([(0, 1), (0, -1)])
    assert Region(2, ((0, 0), (0, 1))) == make_region([(0, 1), (0, 0), (0, 1)])


def test_regions_and_tilings_are_records_of_their_fields():
    disk = [(0, 0), (1, 0), (0, 1)]
    builders = (
        lambda: make_box((2, 3, 2)),
        lambda: make_cylinder(make_region(disk), 2),
        lambda: make_region(disk),
    )
    for build in builders:
        region = build()
        fields = (region.d, region.cells)
        assert hash(region) == hash(fields)
        copies = (build(), Region(*fields), pickle.loads(pickle.dumps(region)))
        for again in copies:
            assert again == region and hash(again) == hash(region)
        assert copies[1] is not region
        assert region != fields and region != object()
        with pytest.raises(AttributeError):
            region.cells = ()
        with pytest.raises(AttributeError):
            del region.cells
        with pytest.raises(TypeError):
            Region(*fields, "box")
    # the cells alone decide: a box's cells built as a general region are
    # the box, and its sides are derived from them
    box = make_box((2, 3, 2))
    assert Region(box.d, box.cells) == box and make_region(box.cells) == box
    assert Region(box.d, box.cells).dims == (2, 3, 2)
    assert Region(box.d, box.cells) != Region(box.d + 1, box.cells)
    tiling = base_vertical_tiling(box)
    assert hash(tiling) == hash((tiling.region, tiling.partner))
    with pytest.raises(AttributeError):
        tiling.partner = ()
    assert repr(make_box((1, 2))) == "Region(d=2, cells=((0, 0), (0, 1)))"


_BOXES = st.integers(2, 4).flatmap(
    lambda d: st.lists(st.integers(1, 3), min_size=d, max_size=d).map(make_box)
)
_DISKS = st.sets(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1).map(make_region)
_CYLINDERS = st.builds(make_cylinder, _DISKS, st.integers(1, 3))
_GENERAL = st.integers(2, 3).flatmap(
    lambda d: st.sets(st.tuples(*[st.integers(0, 2)] * d), min_size=1).map(make_region)
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_BOXES, _CYLINDERS, _GENERAL))
@example(make_cylinder(make_box((2, 2)), 3))
@example(make_cylinder(make_region([(0, 0), (1, 0), (2, 0), (0, 1)]), 2))
@example(make_cylinder(make_region([(0, 0), (2, 0), (3, 1)]), 2))
def test_a_region_is_its_cells_and_its_record_reads_back_to_it(region):
    record = region_to_record(region)
    again = region_from_record(json.loads(json.dumps(record)))
    assert again == region and hash(again) == hash(region)
    assert region_to_record(again) == record
    assert (record["kind"] == "box") == (region.dims is not None)
    built = make_region(region.cells, d=region.d)
    assert built == region and hash(built) == hash(region)


def test_a_cylinder_over_a_box_reads_back_from_its_tiling_file(tmp_path):
    region = make_cylinder(make_box((2, 2)), 2)
    tilings = list(enumerate_tilings(region))
    write_tilings(tmp_path / "t.jsonl", region, tilings)
    back_region, back = read_tilings(tmp_path / "t.jsonl")
    assert back_region == region == make_box((2, 2, 2))
    assert back == tilings


def test_a_general_region_of_prism_cells_has_the_all_vertical_base():
    # the base is read from the cells, so an L cylinder's cells given as a
    # general region get the cylinder's base, and equal regions one twist
    from dimers.twist import twist

    cylinder = make_cylinder(make_region([(0, 0), (1, 0), (2, 0), (0, 1)]), 2)
    general = make_region(list(cylinder.cells), d=3)
    base = base_vertical_tiling(general)
    assert base == base_vertical_tiling(cylinder) and twist(base) == 0
    assert all(d.axis == 2 for d in base.dominoes())
    for t in enumerate_tilings(cylinder):
        assert twist(Tiling(general, t.partner)) == twist(t)


def test_base_vertical_tiling():
    t = base_vertical_tiling(make_box((3, 3, 2)))
    assert t.n_dominoes == 9
    assert all(d.axis == 2 for d in t.dominoes())
    assert validate(t) is None

    assert base_vertical_tiling(make_box((2, 2, 2))).n_dominoes == 4

    with pytest.raises(NoBaseTiling):
        base_vertical_tiling(make_box((3, 3, 3)))
    with pytest.raises(NoBaseTiling, match="needs a box or cylinder"):
        base_vertical_tiling(make_region([(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0)]))


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 2), (2, 2), (4, 1, 2)])
def test_base_vertical_validates_on_even_cylinders(dims):
    assert validate(base_vertical_tiling(make_box(dims))) is None


def test_base_vertical_on_l_shaped_cylinder():
    disk = make_region([(0, 0), (1, 0), (2, 0), (0, 1)])
    for height in (2, 4):
        t = base_vertical_tiling(make_cylinder(disk, height))
        assert validate(t) is None
        assert all(d.axis == 2 for d in t.dominoes())


def test_validate_reports_violations():
    r = make_box((2, 2))
    good = base_vertical_tiling(r)  # vertical along y for the 2x2 square
    assert validate(good) is None

    unmatched = Tiling(r, (1, 0, 2, 3))  # two cells matched to themselves
    assert "matched to itself" in validate(unmatched)

    # partner maps both diagonals onto each other: adjacency violation
    diagonal = Tiling(r, (3, 2, 1, 0))
    assert "not adjacent" in validate(diagonal)

    short = Tiling(r, (1, 0))
    assert "covers" in validate(short)


def test_refine_region_dimensions():
    assert refine_region(make_box((3, 3, 2))).dims == (15, 15, 10)
    assert refine_region(make_box((1, 1, 2))).dims == (5, 5, 10)
    twice = refine_region(refine_region(make_box((3, 3, 2))))
    assert twice.dims == (75, 75, 50)
    with pytest.raises(InvalidRegion):
        refine_region(make_box((2, 2)))


def test_refine_tiling_single_domino():
    t = base_vertical_tiling(make_box((1, 1, 2)))
    refined = refine_tiling(t)
    assert refined.region.dims == (5, 5, 10)
    assert refined.n_dominoes == 125
    assert all(d.axis == 2 for d in refined.dominoes())
    assert validate(refined) is None


def test_refine_tiling_all_tilings_of_222():
    for t in enumerate_tilings(make_box((2, 2, 2))):
        refined = refine_tiling(t)
        assert refined.n_dominoes == 125 * t.n_dominoes
        assert validate(refined) is None


def test_refine_tiling_rejects_invalid():
    r = make_box((2, 2))
    with pytest.raises(InvalidTiling):
        refine_tiling(Tiling(r, (3, 2, 1, 0)))


_DISK5 = make_region([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
_REFINED = {
    "2x2x2": make_box((2, 2, 2)),
    "3x3x2": make_box((3, 3, 2)),
    "disk5-x2": make_cylinder(_DISK5, 2),
    "disk5-x2-general": make_region(make_cylinder(_DISK5, 2).cells),
}


@pytest.mark.parametrize("region", _REFINED.values(), ids=_REFINED.keys())
def test_refine_tiling_matches_the_coordinate_oracle(region):
    for t in enumerate_tilings(region):
        assert refine_tiling(t) == refine_tiling_by_cells(t)


def test_add_vertical_floors_rejects_invalid():
    r = make_box((2, 2))
    with pytest.raises(InvalidTiling, match=r"^cell \(0, 0\): partner \(1, 1\) is not adjacent$"):
        add_vertical_floors(Tiling(r, (3, 2, 1, 0)), 2)


def test_add_vertical_floors():
    r = make_box((3, 3, 2))
    base = base_vertical_tiling(r)
    assert add_vertical_floors(base, 0) == base
    extended = add_vertical_floors(base, 2)
    assert extended == base_vertical_tiling(make_box((3, 3, 4)))
    with pytest.raises(InvalidRegion):
        add_vertical_floors(base, 1)


def test_add_vertical_floors_keeps_original_dominoes():
    r = make_box((2, 2, 2))
    for t in enumerate_tilings(r):
        bigger = add_vertical_floors(t, 2)
        assert validate(bigger) is None
        assert set(t.dominoes()) <= set(bigger.dominoes())


def test_encode_roundtrip_and_injectivity():
    r = make_box((3, 3, 2))
    seen = set()
    for t in enumerate_tilings(r):
        blob = encode(t)
        assert decode(blob, r) == t
        seen.add(blob)
    assert len(seen) == 229


@pytest.mark.parametrize(
    "region",
    [
        make_box((3, 3, 2)),
        make_box((2, 3, 4)),
        make_box((2, 2, 2, 2)),
        make_cylinder(make_region([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]), 2),
        make_region([*make_box((3, 3, 2)).cells, (3, 0, 0), (3, 0, 1)]),
    ],
    ids=["3x3x2", "2x3x4", "2x2x2x2", "cylinder", "general"],
)
def test_flip_steps_take_a_key_to_each_flip_neighbours_key(region):
    steps = flip_steps(region)
    assert len(steps) == len(flip_windows(region))
    position = {window: n for n, window in enumerate(flip_windows(region))}
    flips = 0
    for t in enumerate_tilings(region):
        blob = encode(t)
        key = int.from_bytes(blob, "little")
        for move in list_flips(t):
            side = move.axes.index(move.before_axis)
            step = steps[position[region.index[move.corner], move.axes]][side]
            after = (key + step).to_bytes(len(blob), "little")
            assert after == encode(apply_flip(t, move))
            flips += 1
    assert flips


def test_encode_distinct_on_handmade_pair():
    r = make_box((2, 2))
    horizontal = tiling_from_dominoes(r, [Domino((0, 0), 0), Domino((0, 1), 0)])
    vertical = tiling_from_dominoes(r, [Domino((0, 0), 1), Domino((1, 0), 1)])
    assert encode(horizontal) != encode(vertical)


def test_decode_rejects_corrupted_bytes():
    r = make_box((2, 2, 2))
    blob = bytearray(encode(base_vertical_tiling(r)))
    blob[0] ^= 0b011  # point the first cell somewhere inconsistent
    with pytest.raises(DecodeError):
        decode(bytes(blob), r)
    with pytest.raises(DecodeError):
        decode(b"\x00", r)


def test_render_base_tiling_is_all_vertical_markers():
    text = render_floors(base_vertical_tiling(make_box((3, 3, 2))))
    floors = text.split("floor")
    assert len(floors) == 3  # leading empty + two floors
    assert floors[1].count("U") == 9 and floors[1].count("D") == 0
    assert floors[2].count("D") == 9 and floors[2].count("U") == 0


def test_render_flip_changes_exactly_four_glyphs():
    t = base_vertical_tiling(make_box((3, 3, 2)))
    flipped = apply_flip(t, list_flips(t)[0])
    a, b = render_floors(t), render_floors(flipped)
    diffs = sum(1 for x, y in zip(a, b) if x != y)
    assert len(a) == len(b)
    assert diffs == 4


def test_render_parse_roundtrip_on_all_222_tilings():
    r = make_box((2, 2, 2))
    for t in enumerate_tilings(r):
        assert parse_floors(render_floors(t), r) == t


@pytest.mark.parametrize(
    "glyph, message", [("U", "direction code 4"), ("x", "direction code -1")]
)
def test_parse_floors_rejects_a_glyph_the_region_cannot_hold(glyph, message):
    region = make_box((2, 2))
    text = render_floors(tiling_from_dominoes(region, [Domino((0, 0), 0), Domino((0, 1), 0)]))
    with pytest.raises(DecodeError, match=message):
        parse_floors(glyph + text[1:], region)


@pytest.mark.parametrize("kept, floor", [(1, 0), (2, 0), (5, 1), (6, 1)])
def test_parse_floors_rejects_a_diagram_that_ends_inside_a_floor(kept, floor):
    region = make_box((2, 2, 2))
    lines = render_floors(base_vertical_tiling(region)).splitlines()
    with pytest.raises(DecodeError, match=f"diagram ends inside floor {floor}"):
        parse_floors("\n".join(lines[:kept]), region)


def test_render_general_region_uses_dots():
    region = make_region([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1)])
    t = tiling_from_dominoes(
        region, [Domino((0, 0), 1), Domino((1, 0), 1), Domino((2, 0), 1)]
    )
    assert "." not in render_floors(t)
    holey = make_region([(0, 0), (1, 0), (0, 1), (1, 1), (3, 0), (3, 1)])
    t2 = tiling_from_dominoes(
        holey, [Domino((0, 0), 0), Domino((0, 1), 0), Domino((3, 0), 1)]
    )
    assert "." in render_floors(t2)


@pytest.mark.parametrize(
    "cells",
    [
        [(x, y) for x in range(4) for y in range(3)],
        [(x, y, z) for x in range(2) for y in range(3) for z in range(4)],
        # a 4x4x2 box without its centre column, and a 2D region with a gap
        [(x, y, z) for x in range(4) for y in range(4) for z in range(2)
         if not (x in (1, 2) and y in (1, 2))],
        [(0, 0), (1, 0), (0, 1), (1, 1), (3, 0), (3, 1), (3, 2), (3, 3)],
    ],
    ids=["4x3", "2x3x4", "4x4x2-ring", "2D-gap"],
)
def test_render_floors_matches_the_cell_by_cell_diagram(cells):
    region = make_region(cells)
    for t in enumerate_tilings(region):
        assert render_floors(t) == render_floors_by_cell(t)


def test_tilings_file_roundtrip(tmp_path):
    r = make_box((2, 2, 2))
    tilings = list(enumerate_tilings(r))
    path = tmp_path / "tilings.jsonl"
    assert write_tilings(path, r, tilings) == 9
    back_region, back = read_tilings(path)
    assert back_region == r
    assert back == tilings


def test_a_first_tiling_on_another_region_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "keep.jsonl"
    write_tilings(path, make_box((2, 2)), [base_vertical_tiling(make_box((2, 2)))])
    before = path.read_bytes()
    with pytest.raises(RegionMismatch):
        write_tilings(path, make_box((2, 2)), [base_vertical_tiling(make_box((2, 2, 2)))])
    assert path.read_bytes() == before


def test_open_records_reads_a_line_when_its_item_is_asked_for(tmp_path):
    r = make_box((2, 2, 2))
    path = tmp_path / "tilings.jsonl"
    write_tilings(path, r, [base_vertical_tiling(r)])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n{}\n")
    with open_records(path) as (region, tilings):
        assert region == r
        assert next(tilings) == base_vertical_tiling(r)
        with pytest.raises(DecodeError, match="tilings.jsonl line 4: not a tiling record"):
            next(tilings)


@pytest.mark.parametrize("line", [0, 2], ids=["header", "third-line"])
def test_a_tiling_file_that_is_not_utf8_is_a_decode_error(tmp_path, line):
    r = make_box((2, 2, 2))
    path = tmp_path / "tilings.jsonl"
    write_tilings(path, r, list(enumerate_tilings(r)))
    lines = path.read_bytes().split(b"\n")
    lines[line] = b"\xff\xfe"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DecodeError, match="tilings.jsonl: not UTF-8 text"):
        read_tilings(path)


def test_region_record_roundtrip_cylinder(tmp_path):
    disk = make_region([(0, 0), (1, 0), (0, 1)])
    cyl = make_cylinder(disk, 2)
    t = base_vertical_tiling(cyl)
    path = tmp_path / "cyl.jsonl"
    write_tilings(path, cyl, [t])
    back_region, back = read_tilings(path)
    assert back_region == cyl
    assert back == [t]


def _record_line(tiling) -> str:
    """json.dumps of the tiling's record, each domino's low cell and axis
    read off its two cells."""
    cells = tiling.region.cells
    dominoes = []
    for i, j in enumerate(tiling.partner):
        if i < j:
            axis = next(k for k, (x, y) in enumerate(zip(cells[i], cells[j])) if x != y)
            dominoes.append([list(cells[i]), axis])
    return json.dumps({"dominoes": dominoes})


def _respelled(text: str, spelling: str) -> str:
    """The tiling file text with its tiling lines spelled another way
    that json.loads reads the same, up to an extra key."""
    if spelling == "no-final-newline":
        return text.rstrip("\n")
    header, *lines = text.splitlines()
    if spelling == "compact":
        lines = [json.dumps(json.loads(line), separators=(",", ":")) for line in lines]
    else:
        # keeps the writer's first and last characters, so only the
        # lookup of the last domino's text sends the line to JSON
        assert spelling == "extra-key"
        lines = [line[:-1] + ', "note": [[0]]}' for line in lines]
    return "".join(f"{line}\n" for line in [header, *lines])


_SPELLINGS = ["compact", "extra-key", "no-final-newline"]


_CODEC_REGIONS = {
    "box": make_box((2, 3, 4)),
    "cylinder": make_cylinder(make_region([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]), 2),
    "general": make_region(
        [c for c in make_box((3, 3, 2)).cells if c not in {(0, 0, 0), (1, 0, 0)}]
    ),
    "box-4d": make_box((2, 2, 2, 2)),
}


@pytest.mark.parametrize("region", _CODEC_REGIONS.values(), ids=_CODEC_REGIONS.keys())
def test_tiling_file_lines_are_json_dumps_of_the_records(tmp_path, region):
    tilings = list(enumerate_tilings(region))
    assert tilings
    path = tmp_path / "tilings.jsonl"
    assert write_tilings(path, region, tilings) == len(tilings)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == json.dumps(region_to_record(region))
    assert lines[1:] == [_record_line(t) for t in tilings] + [""]
    assert read_tilings(path) == (region, tilings)
    for spelling in _SPELLINGS:
        path.write_text(_respelled("\n".join(lines), spelling), encoding="utf-8")
        assert read_tilings(path) == (region, tilings), spelling


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(small_regions), st.data())
def test_tiling_file_round_trip(tmp_path_factory, region, data):
    tilings = list(enumerate_tilings(region))
    path = tmp_path_factory.mktemp("codec") / "tilings.jsonl"
    write_tilings(path, region, tilings)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[1:] == [_record_line(t) for t in tilings]
    assert read_tilings(path) == (region, tilings)
    path.write_text(_respelled(text, data.draw(st.sampled_from(_SPELLINGS))), encoding="utf-8")
    assert read_tilings(path) == (region, tilings)


@pytest.mark.parametrize(
    "domino",
    [[[0, 0, 0], "2"], [[0, 0, 0], 2.0], [[0, 0, 0], True],
     [[0, 0.0, 0], 2], [[0, 0, False], 2], [["0", 0, 0], 2]],
    ids=["axis-str", "axis-float", "axis-bool", "cell-float", "cell-bool", "cell-str"],
)
def test_tiling_reader_refuses_a_non_integer_axis_or_coordinate(tmp_path, domino):
    box = make_box((2, 2, 2))
    path = tmp_path / "tilings.jsonl"
    write_tilings(path, box, [base_vertical_tiling(box)])
    dominoes = [domino, [[0, 1, 0], 2], [[1, 0, 0], 2], [[1, 1, 0], 2]]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"dominoes": dominoes}) + "\n")
    # the same values as integers make a valid tiling
    text = json.dumps({"dominoes": [[[0, 0, 0], 2], *dominoes[1:]]})
    assert tiling_from_record(json.loads(text), box) == base_vertical_tiling(box)
    message = f"{path} line 3: domino {json.dumps(domino)} has a non-integer"
    with pytest.raises(DecodeError, match=re.escape(message)):
        read_tilings(path)


_VERTICAL_2X2X2 = [[[0, 0, 0], 2], [[0, 1, 0], 2], [[1, 0, 0], 2], [[1, 1, 0], 2]]


@pytest.mark.parametrize(
    "k, domino, message",
    [
        (1, [[0, 0, 0], 1], "domino [[0, 0, 0], 1] overlaps another domino"),
        (3, None, "cell (1, 1, 0): unmatched"),
        (3, [[2, 1, 0], 2], "domino [[2, 1, 0], 2] is not a domino of the region"),
        (3, [[1, 1, -1], 2], "domino [[1, 1, -1], 2] is not a domino of the region"),
        (3, [[1, 1, 0], 3], "domino [[1, 1, 0], 3] is not a domino of the region"),
    ],
    ids=["overlap", "missing-domino", "outside", "negative-coordinate", "axis-d"],
)
def test_a_fault_on_a_line_spelled_as_the_writer_spells_it_is_reported(tmp_path, k, domino, message):
    box = make_box((2, 2, 2))
    path = tmp_path / "tilings.jsonl"
    write_tilings(path, box, [base_vertical_tiling(box)])
    dominoes = _VERTICAL_2X2X2[:k] + [domino] * (domino is not None) + _VERTICAL_2X2X2[k + 1 :]
    line = json.dumps({"dominoes": dominoes})
    assert line.startswith('{"dominoes": [[[') and line.endswith("]]}")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(InvalidTiling) as caught:
        read_tilings(path)
    assert str(caught.value) == f"{path} line 3: {message}"


@st.composite
def box_unions(draw):
    """A union of one to three small boxes in 2D or 3D."""
    d = draw(st.sampled_from([2, 3]))
    corner = st.tuples(*[st.integers(0, 2)] * d)
    dims = st.tuples(*[st.integers(1, 3 if d == 2 else 2)] * d)
    boxes = draw(st.lists(st.tuples(corner, dims), min_size=1, max_size=3))
    return make_region(
        {
            tuple(c + o for c, o in zip(low, off))
            for low, sides in boxes
            for off in product(*map(range, sides))
        },
        d=d,
    )


def _refusal(region, dominoes, path) -> str:
    """tiling_from_dominoes' refusal of the dominoes, after checking that
    read_tilings of a file holding them on one line spelled as the writer
    spells it reports what tiling_from_record does, with file and line."""
    line = json.dumps({"dominoes": dominoes})
    with pytest.raises(DimersError) as by_record:
        tiling_from_record(json.loads(line), region)
    write_tilings(path, region, [])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(DimersError) as by_file:
        read_tilings(path)
    assert str(by_file.value) == f"{path} line 2: {by_record.value}"
    with pytest.raises(InvalidTiling) as caught:
        tiling_from_dominoes(region, dominoes)
    return str(caught.value)


@settings(max_examples=80, deadline=None)
@given(box_unions(), st.data())
def test_tiling_from_dominoes_reads_back_and_refuses_what_is_not_a_tiling(
    tmp_path_factory, region, data
):
    tilings = list(islice(enumerate_tilings(region, cap=None), 20)) if region.balanced() else []
    assume(tilings)
    path = tmp_path_factory.mktemp("refusal") / "tilings.jsonl"
    t = data.draw(st.sampled_from(tilings))
    dominoes = t.dominoes()
    assert tiling_from_dominoes(region, dominoes) == t
    k = data.draw(st.integers(0, len(dominoes) - 1))
    low, axis = dominoes[k]
    before, after = dominoes[:k], dominoes[k + 1 :]
    # an axis outside 0..d-1, a negative one above all, is not a domino
    for bad_axis in (-1, -2, region.d, "0"):
        bad = Domino(low, bad_axis)
        message = f"domino {bad} is not a domino of the region"
        assert _refusal(region, [*before, bad, *after], path) == message
    lo, hi = region.bounding_box
    grown = product(*[range(a - 1, b + 2) for a, b in zip(lo, hi)])
    outside = data.draw(st.sampled_from([c for c in grown if not region.contains(c)]))
    bad = Domino(outside, data.draw(st.integers(0, region.d - 1)))
    message = f"domino {bad} is not a domino of the region"
    assert _refusal(region, [*before, bad, *after], path) == message
    # every domino of the region overlaps one of a tiling
    extra = data.draw(st.sampled_from(sorted(pair_dominoes(region).values())))
    assert _refusal(region, [*dominoes, extra], path) == f"domino {extra} overlaps another domino"
    # the first uncovered cell is the removed domino's low cell
    assert _refusal(region, [*before, *after], path) == f"cell {low}: unmatched"


def test_core_reexports_every_name_of_the_region_layer_as_the_same_object():
    import ast

    import dimers.core
    import dimers.regions

    tree = ast.parse(Path(dimers.regions.__file__).read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    assert {"Region", "Cell", "make_box", "region_from_record", "_integer", "open_text"} <= defined
    for name in defined:
        assert getattr(dimers.core, name) is getattr(dimers.regions, name), name
