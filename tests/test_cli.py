import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dimers.cli import _load_disk, main
from dimers.core import make_box, make_cylinder, region_from_record, region_to_record
from dimers.counting import count_region


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_count_box(in_tmp, capsys):
    code, out = run(capsys, "count", "--box", "3,3,2")
    assert code == 0
    assert out.strip() == "229"
    manifest = json.loads((in_tmp / "run_manifest.json").read_text())
    assert manifest["command"] == "count"
    assert manifest["calibration"]["kappa"] == "1/8"
    assert manifest["region"]["dims"] == [3, 3, 2]


def test_count_formula(in_tmp, capsys):
    code, out = run(capsys, "count", "--box", "4,4", "--formula")
    assert code == 0
    assert out.strip() == "36.0"


def test_count_formula_prints_the_float_not_a_rounded_integer(in_tmp, capsys):
    # 12x12 has 17 digits, past a double's 15-16: rounding would fake them
    code, out = run(capsys, "count", "--box", "12,12", "--formula")
    assert code == 0
    assert not out.strip().isdigit()
    exact = count_region(make_box((12, 12)))
    assert abs(float(out) - exact) <= 1e-9 * exact
    manifest = json.loads((in_tmp / "run_manifest.json").read_text())
    assert "count" not in manifest and manifest["formula_value"] == float(out)


def test_count_disk_file(in_tmp, capsys):
    disk = in_tmp / "disk.txt"
    disk.write_text("###\n###\n###\n")
    code, out = run(capsys, "count", "--disk", str(disk), "--height", "2")
    assert code == 0
    assert out.strip() == "229"


@pytest.mark.parametrize(
    "grid, height, count",
    [("###\n###\n", 3, 229), ("##\n#.\n", 4, 11), (".#\n##\n##\n", 2, 12)],
    ids=["3x2", "l-tromino", "p-pentomino"],
)
def test_count_disk_manifest_reads_back_to_its_region(in_tmp, capsys, grid, height, count):
    (in_tmp / "disk.txt").write_text(grid)
    code, out = run(capsys, "count", "--disk", "disk.txt", "--height", str(height))
    assert code == 0 and out.strip() == str(count)
    record = json.loads((in_tmp / "run_manifest.json").read_text())["region"]
    region = region_from_record(record)
    assert region == make_cylinder(_load_disk("disk.txt"), height)
    assert record == region_to_record(region)
    assert count_region(region) == count


def test_count_over_a_disconnected_disk_records_a_region_that_reads_back(in_tmp, capsys):
    (in_tmp / "disk.txt").write_text("##.##\n")
    code, out = run(capsys, "count", "--disk", "disk.txt", "--height", "2")
    assert code == 0 and out.strip() == "4"
    record = json.loads((in_tmp / "run_manifest.json").read_text())["region"]
    assert record == {"d": 3, "kind": "cylinder", "disk_cells": [[0, 0], [1, 0], [3, 0], [4, 0]],
                      "height": 2}
    assert count_region(region_from_record(record)) == 4


_READ_BACK_ARGV = {
    "count": ["count"],
    "enumerate": ["enumerate", "--out", "t.jsonl"],
    "components": ["components"],
    "flipfree": ["flipfree"],
    "census": ["census"],
    "twist": ["twist", "--tiling", "base"],
    "pfaffian": ["pfaffian"],
    "sample": ["sample", "--steps", "10", "--out", "f.jsonl"],
    "slab-census": ["slab", "census"],
    "ideals-export": ["ideals", "export", "--out", "i.txt"],
    "render": ["render"],
}


@pytest.mark.parametrize("grid", ["##\n##\n", "##.##\n"], ids=["connected", "disconnected"])
@pytest.mark.parametrize("argv", list(_READ_BACK_ARGV.values()), ids=list(_READ_BACK_ARGV))
def test_every_manifest_region_reads_back(in_tmp, capsys, argv, grid):
    (in_tmp / "disk.txt").write_text(grid)
    code, _ = run(capsys, *argv, "--disk", "disk.txt", "--height", "2")
    assert code == 0
    record = json.loads((in_tmp / "run_manifest.json").read_text())["region"]
    assert region_from_record(record) == make_cylinder(_load_disk("disk.txt"), 2)


def test_count_box_and_formula_manifest_regions(in_tmp, capsys):
    for argv, record in [
        (("--box", "3,3,2"), {"d": 3, "kind": "box", "dims": [3, 3, 2]}),
        (("--box", "4,4", "--formula"), {"d": 2, "kind": "box", "dims": [4, 4]}),
    ]:
        run(capsys, "count", *argv)
        assert json.loads((in_tmp / "run_manifest.json").read_text())["region"] == record


def test_count_outputs_exact_decimal(in_tmp, capsys):
    code, out = run(capsys, "count", "--box", "4,4,8")
    assert code == 0
    assert out.strip() == "175220727982196365632"


def test_enumerate_and_twist_roundtrip(in_tmp, capsys):
    code, out = run(capsys, "enumerate", "--box", "2,2,2", "--out", "t.jsonl")
    assert code == 0 and "9 tilings" in out
    code, out = run(capsys, "twist", "--box", "2,2,2", "--tiling", "t.jsonl")
    assert code == 0
    assert out.split() == ["0"] * 9


def test_render_base(in_tmp, capsys):
    code, out = run(capsys, "render", "--box", "3,3,2", "--tiling", "base")
    assert code == 0
    assert out.startswith("floor 0")
    assert out.count("U") == 9 and out.count("D") == 9


def test_components_and_census(in_tmp, capsys):
    code, out = run(capsys, "components", "--box", "3,3,2", "--out", "census.csv")
    assert code == 0
    assert "components: 3" in out
    assert "sizes: 227, 1, 1" in out
    assert (in_tmp / "census.csv").exists()

    code, out = run(capsys, "census", "--box", "3,3,2", "--out", "twist.csv")
    assert code == 0
    assert out.splitlines() == ["-1,1", "0,227", "1,1"]


def test_flipfree(in_tmp, capsys):
    code, out = run(capsys, "flipfree", "--box", "3,3,2")
    assert code == 0
    assert out.splitlines()[0] == "flip-free tilings: 2"


def test_pfaffian(in_tmp, capsys):
    code, out = run(capsys, "pfaffian", "--box", "2,2,2")
    assert code == 0
    assert out.strip() in ("9", "-9")


def test_sample_histogram_and_svg(in_tmp, capsys):
    code, out = run(
        capsys,
        "sample",
        "--box", "2,2,2",
        "--moves", "flips",
        "--samples", "50",
        "--seed", "7",
        "--histogram", "hist.csv",
        "--svg", "hist.svg",
    )
    assert code == 0
    assert "samples: 50" in out
    assert (in_tmp / "hist.csv").read_text().splitlines()[0] == "twist,count"
    assert (in_tmp / "hist.svg").read_text().startswith("<svg")


def test_sample_is_reproducible(in_tmp, capsys):
    args = ["sample", "--box", "3,3,2", "--moves", "flips+trits",
            "--samples", "30", "--seed", "3",
            "--histogram", "a.csv"]
    assert main(args) == 0
    first = (in_tmp / "a.csv").read_text()
    args[-1] = "b.csv"
    assert main(args) == 0
    assert first == (in_tmp / "b.csv").read_text()
    capsys.readouterr()


def test_slab_census(in_tmp, capsys):
    code, out = run(capsys, "slab", "census", "--box", "4,2,2")
    assert code == 0
    assert out.splitlines() == ["slab tilings: 11", "flip components: 1", "triple twists: (0, 0, 0)"]
    manifest = json.loads((in_tmp / "run_manifest.json").read_text())
    assert manifest["twists_by_component"] == [
        {"size": 11, "triple_twists": [[0, 0, 0]], "undefined": 0}
    ]


@pytest.mark.parametrize("height, total, undefined", [(2, 39, 12), (4, 2371, 996)], ids=["h2", "h4"])
def test_slab_census_counts_the_tilings_without_a_triple_twist(in_tmp, capsys, height, total, undefined):
    # the L disk's cylinders: some tilings have a non-integral pair twist
    (in_tmp / "l-disk.txt").write_text("####\n####\n##..\n##..\n")
    code, out = run(capsys, "slab", "census", "--disk", "l-disk.txt", "--height", str(height))
    assert code == 0
    assert out.splitlines() == [
        f"slab tilings: {total}",
        "flip components: 1",
        "triple twists: (0, 0, 0)",
        f"undefined triple twists: {undefined} tilings in 1 component",
    ]
    manifest = json.loads((in_tmp / "run_manifest.json").read_text())
    assert manifest["twists_by_component"] == [
        {"size": total, "triple_twists": [[0, 0, 0]], "undefined": undefined}
    ]


def test_slab_twist_file(in_tmp, capsys):
    from dimers.core import make_box
    from dimers.slab import horizontal_slab_tiling, write_slab_tilings

    region = make_box((4, 4, 2))
    write_slab_tilings("slabs.jsonl", region, [horizontal_slab_tiling(region)])
    code, out = run(capsys, "slab", "twist", "--tiling", "slabs.jsonl")
    assert code == 0
    assert out.strip() == "0,0,0"


def test_components_extended_path(in_tmp, capsys):
    argv = ("components", "--box", "2,2,2", "--extended", "--scratch", str(in_tmp))
    code, out = run(capsys, *argv)
    assert code == 0
    assert "components: 1" in out
    assert "sizes: 9" in out
    # a rerun on the same scratch dir prints the stored census
    assert run(capsys, *argv) == (code, out)


def test_components_extended_refuses_an_unfinished_visited_set(in_tmp, capsys):
    from dimers.explore import DiskBackedSet

    visited = DiskBackedSet(in_tmp / "visited.sqlite")
    visited.add(b"\x00")
    visited.close()
    argv = ["components", "--box", "2,2,2", "--extended", "--scratch", str(in_tmp)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "scratch, message",
    [("missing-dir", "unable to open database file"), ("bad", "file is not a database")],
    ids=["missing-dir", "not-a-database"],
)
def test_components_extended_reports_a_sqlite_error_in_one_line(in_tmp, capsys, scratch, message):
    (in_tmp / "bad").mkdir()
    (in_tmp / "bad" / "visited.sqlite").write_text("not a database, " * 8)
    assert main(["components", "--box", "2,2,2", "--extended", "--scratch", scratch]) == 2
    assert capsys.readouterr().err == f"error: {scratch}/visited.sqlite: {message}\n"


@pytest.mark.parametrize("box", ["2,3", "2,2,2,2"])
def test_components_outside_3d_prints_the_flip_census(in_tmp, capsys, box):
    code, out = run(capsys, "components", "--box", box)
    assert code == 0
    assert (code, out) == run(capsys, "components", "--box", box, "--extended")


def test_components_out_outside_3d_is_refused(in_tmp, capsys):
    assert main(["components", "--box", "2,3", "--out", "census.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --out writes each component's twist, which is defined for d=3 only\n"
    assert not (in_tmp / "census.csv").exists()


def test_components_scratch_without_extended_is_refused_before_any_work(in_tmp, capsys):
    assert main(["components", "--box", "2,2,2", "--scratch", "missing-dir"]) == 2
    assert capsys.readouterr() == ("", "error: --scratch applies to --extended only\n")
    assert not list(in_tmp.iterdir())


def test_components_extended_out_is_refused_before_any_work(in_tmp, capsys):
    argv = ["components", "--box", "3,3,2", "--extended", "--scratch", str(in_tmp)]
    assert main([*argv, "--out", "c.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --out applies to an in-memory census, not --extended\n"
    assert not (in_tmp / "c.csv").exists()
    assert not (in_tmp / "visited.sqlite").exists()


def test_sample_writes_final_state(in_tmp, capsys):
    code, out = run(
        capsys, "sample", "--box", "2,2,2", "--moves", "flips",
        "--steps", "500", "--seed", "1", "--out", "final.jsonl",
    )
    assert code == 0
    from dimers.core import read_tilings, validate

    region, tilings = read_tilings(in_tmp / "final.jsonl")
    assert len(tilings) == 1
    assert validate(tilings[0]) is None


def test_ideals_export(in_tmp, capsys):
    code, out = run(
        capsys, "ideals", "export", "--box", "2,3", "--out", "ideals.txt",
        "--with-tiling-ideal",
    )
    assert code == 0
    text = (in_tmp / "ideals.txt").read_text()
    assert "+e2*e4 -e3*e6" in text
    assert "+e0*e2*e4 -e0*e3*e6" in text


def test_exit_code_guard(in_tmp, capsys):
    # every axis order of 5x5x5 has profile width 25, over the guard of 24
    assert main(["count", "--box", "5,5,5"]) == 3
    # all 40,320 axis orders of the 8D box read the same sides, so one
    # sweep is planned before the guard refuses it
    capsys.readouterr()
    assert main(["count", "--box", "2,2,2,2,2,2,2,2"]) == 3
    assert capsys.readouterr() == ("", "error: profile width 128 exceeds guard 24\n")
    (in_tmp / "square5.txt").write_text("#####\n" * 5)
    assert main(["count", "--disk", "square5.txt", "--height", "5"]) == 3
    assert main(["enumerate", "--box", "3,3,2", "--cap", "10"]) == 3
    # on a box the twist law is swept in count's order, so census refuses
    # the boxes count refuses, with the same line
    capsys.readouterr()
    assert main(["census", "--box", "1,2,30"]) == 0
    assert capsys.readouterr() == ("0,1346269\n", "")
    for command in ("count", "census"):
        assert main([command, "--box", "5,5,6"]) == 3
        assert capsys.readouterr() == ("", "error: profile width 25 exceeds guard 24\n")


def test_exit_code_usage_errors(in_tmp, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--box", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    # DimersError surfaces as usage too: no region given
    assert main(["count"]) == 2


def test_a_tiling_line_with_a_domino_missing_ends_in_one_error_line(in_tmp, capsys):
    from dimers.core import base_vertical_tiling, make_box, write_tilings

    box = make_box((2, 2, 2))
    write_tilings("full.jsonl", box, [base_vertical_tiling(box)])
    header, line = (in_tmp / "full.jsonl").read_text().splitlines()
    record = json.loads(line)
    record["dominoes"].pop(0)
    (in_tmp / "hole.jsonl").write_text(f"{header}\n{json.dumps(record)}\n")
    assert main(["twist", "--box", "2,2,2", "--tiling", "hole.jsonl"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: hole.jsonl line 2: cell (0, 0, 0): unmatched\n"


def _modules_after(code: str, cwd) -> set[str]:
    """The modules loaded once code has run in a fresh interpreter."""
    import dimers

    src = Path(dimers.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    return set(result.stdout.split())


def test_a_launch_loads_only_the_modules_its_subcommand_runs(tmp_path):
    manifest = tmp_path / "m.json"
    argv = ["--manifest", str(manifest), "count", "--box", "2,2"]
    loaded = _modules_after(f"from dimers.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert "dimers.counting" in loaded
    assert not loaded & {"dimers.sample", "dimers.slab", "dimers.ideals", "sqlite3", "csv"}
    # records are plain classes, and the manifest's calibration constants
    # are a literal of the cli: no twist module, and no fractions for it
    assert not loaded & {"dataclasses", "inspect", "dimers.explore", "dimers.moves"}
    assert not loaded & {"dimers.twist", "fractions", "decimal"}
    assert json.loads(manifest.read_text())["calibration"]["kappa"] == "1/8"
    # listing and applying moves loads the twist module only to sign a
    # trit, and writing a final state reads no twist
    for argv in (["enumerate", "--box", "2,2,2", "--out", "e.jsonl"],
                 ["components", "--box", "2,2,2"],
                 ["flipfree", "--box", "2,2,2"],
                 ["sample", "--box", "4,4,4", "--moves", "flips+trits", "--steps", "100",
                  "--out", "o.jsonl"]):
        loaded = _modules_after(
            "import contextlib, io\nfrom dimers.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0",
            tmp_path,
        )
        assert not loaded & {"dimers.twist", "fractions", "decimal"}, argv
        if argv[0] == "sample":
            assert "dimers.sample" in loaded
            assert not loaded & {"dataclasses", "dimers.explore"}
    argv = ["census", "--box", "2,2,2"]
    loaded = _modules_after(
        "import contextlib, io\nfrom dimers.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0",
        tmp_path,
    )
    assert "dimers.twist" in loaded
    assert not [name for name in _modules_after("import dimers", tmp_path)
                if name.startswith("dimers.")]
    # 2x3x5 has no all-vertical tiling: the twist's reference is the first
    # tiling core.matchings finds, so reading and twisting a file enumerates
    # nothing
    from dimers.core import write_tilings
    from dimers.explore import enumerate_tilings

    box = make_box((2, 3, 5))
    write_tilings(tmp_path / "F.jsonl", box, enumerate_tilings(box))
    argv = ["--manifest", str(manifest), "twist", "--box", "2,3,5", "--tiling", "F.jsonl"]
    loaded = _modules_after(
        "import contextlib, io\nfrom dimers.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0",
        tmp_path,
    )
    assert "dimers.twist" in loaded
    assert not loaded & {"dimers.explore", "dimers.counting", "dimers.moves"}


def test_the_manifest_records_the_declared_calibration(in_tmp, capsys):
    from dimers.cli import _CALIBRATION
    from dimers.twist import calibration

    assert _CALIBRATION == calibration().as_dict()
    assert run(capsys, "count", "--box", "2,2") == (0, "2\n")
    manifest = json.loads((in_tmp / "run_manifest.json").read_text())
    assert manifest["calibration"] == calibration().as_dict()


# every flag of every subcommand, as its --help lists it
_FLAGS = {
    ("count",): {"--box", "--disk", "--height", "--formula"},
    ("enumerate",): {"--box", "--disk", "--height", "--cap", "--out"},
    ("components",): {"--box", "--disk", "--height", "--cap", "--extended", "--scratch", "--out"},
    ("flipfree",): {"--box", "--disk", "--height", "--cap", "--out"},
    ("census",): {"--box", "--disk", "--height", "--out"},
    ("twist",): {"--box", "--disk", "--height", "--tiling"},
    ("pfaffian",): {"--box", "--disk", "--height"},
    ("sample",): {"--box", "--disk", "--height", "--moves", "--steps", "--seed", "--burn-in",
                  "--samples", "--workers", "--histogram", "--svg", "--out"},
    ("slab",): set(),
    ("slab", "census"): {"--box", "--disk", "--height", "--cap"},
    ("slab", "twist"): {"--tiling", "--box"},
    ("ideals",): set(),
    ("ideals", "export"): {"--box", "--disk", "--height", "--out", "--with-tiling-ideal", "--cap"},
    ("render",): {"--box", "--disk", "--height", "--tiling"},
}


@pytest.mark.parametrize("command", sorted(_FLAGS), ids=" ".join)
def test_every_subcommand_help_lists_every_flag(capsys, command):
    import re

    with pytest.raises(SystemExit) as stop:
        main([*command, "--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: dimers {' '.join(command)} [-h]")
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == _FLAGS[command] | {"--help"}


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "{count,enumerate,components,flipfree,census,twist,pfaffian,sample,slab,ideals,render}" in out
    assert "exact tiling count" in out and "floor diagram of tilings" in out


def test_every_public_name_resolves_to_the_object_in_its_home_module():
    import importlib

    import dimers
    import dimers.twist  # the submodule shares the name of the function

    assert dimers.Cell is importlib.import_module("dimers.core").Cell
    for name in set(dimers.__all__) - {"__version__", "Cell"}:
        value = getattr(dimers, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name
    assert dimers.twist is importlib.import_module("dimers.twist").twist
    with pytest.raises(AttributeError, match="no_such_name"):
        dimers.no_such_name


def test_exit_code_calibration(in_tmp, capsys, monkeypatch):
    import importlib
    from itertools import product

    counting = importlib.import_module("dimers.counting")
    from dimers.errors import CalibrationError

    def boom(region):
        raise CalibrationError("forced failure")

    with monkeypatch.context() as patch:
        patch.setattr(counting, "count_region", boom)
        assert main(["count", "--box", "2,2"]) == 4
    assert capsys.readouterr().err == "error: forced failure\n"

    # 3x3x4 without two cells of its top layer: the declared normalization
    # gives this region a half-integer twist, which is refused, not rescaled
    cut = {(2, 1, 3), (2, 2, 3)}
    cells = [list(c) for c in product(range(3), range(3), range(4)) if c not in cut]
    (in_tmp / "cut.json").write_text(json.dumps({"d": 3, "kind": "general", "cells": cells}))
    capsys.readouterr()
    assert main(["census", "--disk", "cut.json"]) == 4
    assert capsys.readouterr() == ("", "error: non-integral twist -3/2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--box", "3,3,2", "--config"],
        ["--config", "missing.txt", "count"],
        ["count", "--disk", "missing.txt", "--height", "2"],
        ["twist", "--box", "2,2,2", "--tiling", "missing.jsonl"],
    ],
    ids=["config-without-value", "missing-config", "missing-disk", "missing-tiling"],
)
def test_bad_arguments_end_in_one_error_line(in_tmp, capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "bad.bin", "count", "--box", "2,2"],
        ["count", "--disk", "bad.bin"],
        ["count", "--disk", "bad.bin", "--height", "2"],
        ["census", "--disk", "bad.bin", "--height", "2"],
        ["twist", "--box", "2,2,2", "--tiling", "bad.bin"],
        ["render", "--box", "2,2,2", "--tiling", "bad.bin"],
        ["slab", "twist", "--tiling", "bad.bin"],
    ],
    ids=["config", "disk", "count-cylinder", "cylinder", "twist", "render", "slab-twist"],
)
def test_a_file_that_is_not_utf8_ends_in_one_error_line(in_tmp, capsys, argv):
    (in_tmp / "bad.bin").write_bytes(b"\xff\xfe")
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bad.bin: not UTF-8 text\n"


def test_config_file(in_tmp, capsys):
    (in_tmp / "conf.txt").write_text("box=3,3,2\n")
    code, out = run(capsys, "--config", "conf.txt", "count")
    assert code == 0
    assert out.strip() == "229"
    # explicit flags win over the config file
    code, out = run(capsys, "--config", "conf.txt", "count", "--box", "2,2,2")
    assert code == 0
    assert out.strip() == "9"
    # the one-token form reads the same file
    assert run(capsys, "--config=conf.txt", "count") == (0, "229\n")
    assert main(["--config=", "count"]) == 2


# a line nested deeper than json.loads recurses, which is bad JSON too
_DEEP_LINE = '{"d": ' + "[" * 200_000

# int() would read 2.0, 0.5 and true as 2, 0 and 1, and 2.7 as 2; a box's
# d must be its number of sides, or d 5 reads as the 2x2x2 box and d 2 with
# --height 2 as a 4D cylinder
_REGION_RECORDS = [
    ('{"d": 2.0, "kind": "general", "cells": [[0, 0], [1, 0]]}', "region d 2.0 is not an integer"),
    ('{"d": 2, "kind": "general", "cells": [[0.5, 0], [1, 0]]}',
     "region coordinate 0.5 is not an integer"),
    ('{"d": 2, "kind": "general", "cells": [[true, 0], [0, 0]]}',
     "region coordinate true is not an integer"),
    ('{"d": true, "kind": "box", "dims": [2, 2]}', "region d true is not an integer"),
    ('{"d": 2, "kind": "box", "dims": [2.7, 2]}', "region dims entry 2.7 is not an integer"),
    ('{"d": 3, "kind": "cylinder", "disk_cells": [[0, 0], [1, 0]], "height": 2.0}',
     "region height 2.0 is not an integer"),
    ('{"d": 5, "kind": "box", "dims": [2, 2, 2]}', "region d 5 does not match 3 dims [2, 2, 2]"),
    ('{"d": 2, "kind": "box", "dims": [2, 2, 2]}', "region d 2 does not match 3 dims [2, 2, 2]"),
    (_DEEP_LINE, "bad JSON (nested too deeply)"),
]
_RECORD_IDS = ["d-float", "coordinate-float", "coordinate-bool", "box-d-bool", "dims-float",
               "height-float", "box-d-5", "box-d-2", "deep"]

_TWIST_FILE = ["twist", "--box", "2,2,2", "--tiling", "bad.jsonl"]
_DISK_RECORD = ["count", "--disk", "bad-disk.json", "--height", "2"]
_SLAB_FILE = ["slab", "twist", "--tiling", "bad-slabs.jsonl"]
_RENDER_FILE = ["render", "--box", "2,2,2", "--tiling", "bad.jsonl"]


@pytest.mark.parametrize(
    "argv, line, where",
    [
        (_TWIST_FILE, '{"dominoes": [[0, 0', "bad.jsonl line 3: bad JSON"),
        (_TWIST_FILE, _DEEP_LINE, "bad.jsonl line 3: bad JSON (nested too deeply)\n"),
        (_RENDER_FILE, _DEEP_LINE, "bad.jsonl line 3: bad JSON (nested too deeply)\n"),
        (_SLAB_FILE, _DEEP_LINE, "bad-slabs.jsonl line 3: bad JSON (nested too deeply)\n"),
        (_DISK_RECORD, '{"d": 2, "kind": ', "bad-disk.json line 2: bad JSON"),
        (_TWIST_FILE, "{}", "bad.jsonl line 3: not a tiling record (KeyError"),
        (_RENDER_FILE, "{}", "bad.jsonl line 3: not a tiling record (KeyError"),
        (_TWIST_FILE, '{"dominoes": [[[0, 0, 0]]]}',
         "bad.jsonl line 3: not a tiling record (ValueError"),
        (_SLAB_FILE, "{}", "bad-slabs.jsonl line 3: not a slab tiling record (KeyError"),
        (_SLAB_FILE, '{"slabs": [[[0, 0, 0], 2.0], [[0, 0, 1], 2]]}',
         "bad-slabs.jsonl line 3: slab [[0, 0, 0], 2.0] needs integer coordinates"),
        (_SLAB_FILE, '{"slabs": [[[0, 0, true], 2], [[0, 0, 1], 2]]}',
         "bad-slabs.jsonl line 3: slab [[0, 0, true], 2] needs integer coordinates"),
        (_SLAB_FILE, '{"slabs": [[[0, 0, 0], 5], [[0, 0, 1], 2]]}',
         "bad-slabs.jsonl line 3: slab [[0, 0, 0], 5] needs integer coordinates and a normal 0..2"),
        (_SLAB_FILE, '{"slabs": [[[0, 0, 0], -1], [[0, 0, 1], 2]]}',
         "bad-slabs.jsonl line 3: slab [[0, 0, 0], -1] needs integer coordinates and a normal 0..2"),
        (_SLAB_FILE, '{"slabs": [[[0, 0, 0], 2], [[0, 1, 1], 0]]}',
         "bad-slabs.jsonl line 3: slab Slab(corner=(0, 1, 1), normal=0) leaves the region at (0, 1, 2)\n"),
        (_SLAB_FILE, '{"slabs": [[[0, 0, 1], 2], [[0, 0, 0], 0]]}',
         "bad-slabs.jsonl line 3: cell (0, 0, 1) covered twice\n"),
        (_SLAB_FILE, '{"slabs": [[[0, 0, 0], 2]]}', "bad-slabs.jsonl line 3: 4 cells uncovered\n"),
        (_DISK_RECORD, '{"kind": "cylinder"}',
         "bad-disk.json line 2: not a region record (KeyError"),
        (_DISK_RECORD, "[1,2]", "bad-disk.json line 2: not a disk row"),
        (_DISK_RECORD, "##x#", "bad-disk.json line 2: not a disk row"),
        *[(_DISK_RECORD, record, f"bad-disk.json line 2: {message}\n")
          for record, message in _REGION_RECORDS],
    ],
    ids=["tiling-file", "tiling-deep", "render-deep", "slab-deep", "disk-record", "tiling-empty",
         "render-empty", "tiling-short-domino",
         "slab-empty", "slab-float-normal", "slab-bool-coordinate", "slab-normal-5",
         "slab-normal-minus-1", "slab-leaves", "slab-covered-twice", "slab-uncovered", "disk-cylinder", "disk-array", "disk-grid-glyph",
         *("disk-" + name for name in _RECORD_IDS)],
)
def test_malformed_json_ends_in_one_error_line(in_tmp, capsys, argv, line, where):
    from dimers.core import base_vertical_tiling, make_box, write_tilings
    from dimers.slab import horizontal_slab_tiling, write_slab_tilings

    box = make_box((2, 2, 2))
    write_tilings("bad.jsonl", box, [base_vertical_tiling(box)])
    write_slab_tilings("bad-slabs.jsonl", box, [horizontal_slab_tiling(box)])
    for name in ("bad.jsonl", "bad-slabs.jsonl"):
        with open(name, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    (in_tmp / "bad-disk.json").write_text("\n" + line + "\n")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    # a file command buffers its valid line 2's result, so stdout stays empty
    assert out == ""
    assert err.startswith(f"error: {where}") and err.count("\n") == 1


@pytest.mark.parametrize("record, message", _REGION_RECORDS, ids=_RECORD_IDS)
def test_a_tiling_file_header_takes_integers_only(in_tmp, capsys, record, message):
    (in_tmp / "t.jsonl").write_text(record + "\n")
    assert main(["twist", "--box", "2,2,2", "--tiling", "t.jsonl"]) == 2
    assert capsys.readouterr() == ("", f"error: t.jsonl line 1: {message}\n")


@pytest.mark.parametrize("text", ["", "\n  \n\n", "...\n..\n"], ids=["empty", "blank", "dots"])
@pytest.mark.parametrize("height", [["--height", "2"], []], ids=["cylinder", "disk"])
def test_disk_without_a_cell_ends_in_one_error_line(in_tmp, capsys, text, height):
    (in_tmp / "disk.txt").write_text(text)
    assert main(["count", "--disk", "disk.txt", *height]) == 2
    err = capsys.readouterr().err
    assert err == "error: disk.txt: disk has no '#' cell\n"


def test_manifest_path_flag(in_tmp, capsys):
    code, _ = run(capsys, "--manifest", "custom.json", "count", "--box", "2,2")
    assert code == 0
    assert json.loads((in_tmp / "custom.json").read_text())["command"] == "count"


@pytest.mark.parametrize(
    "path, message",
    [
        ("", "--manifest needs a file path"),
        (".", "--manifest .: is a directory"),
        ("missing-dir/m.json", "--manifest missing-dir/m.json: missing-dir is not a directory"),
        ("disk.txt/m.json", "--manifest disk.txt/m.json: disk.txt is not a directory"),
    ],
    ids=["empty", "directory", "missing-directory", "under-a-file"],
)
def test_a_manifest_path_that_cannot_be_written_is_refused_before_any_work(
    in_tmp, capsys, path, message
):
    (in_tmp / "disk.txt").write_text("##\n")
    assert main(["--manifest", path, "enumerate", "--box", "2,2", "--out", "o.jsonl"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in in_tmp.iterdir()) == ["disk.txt"]


@pytest.mark.parametrize("command", ["count", "census"])
def test_height_zero_is_a_height(in_tmp, capsys, command):
    (in_tmp / "disk.txt").write_text("###\n###\n")
    assert main([command, "--disk", "disk.txt", "--height", "0"]) == 2
    assert capsys.readouterr().err == "error: cylinder height must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--box", "3,3,2", "--height", "7"),
        ("count", "--box", "2,2", "--formula", "--height", "3"),
        ("render", "--box", "2,2,2", "--height", "4"),
    ],
    ids=["count", "count-formula", "render"],
)
def test_height_beside_box_is_refused(in_tmp, capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --height applies to --disk only\n"


@pytest.mark.parametrize(
    "header, corner",
    [('{"d": 2, "kind": "box", "dims": [2, 2]}', [0, 0]),
     ('{"d": 4, "kind": "box", "dims": [2, 2, 2, 2]}', [0, 0, 0, 0])],
    ids=["2d", "4d"],
)
def test_slab_twist_refuses_a_slab_file_that_is_not_3d(in_tmp, capsys, header, corner):
    (in_tmp / "s.jsonl").write_text(header + "\n" + json.dumps({"slabs": [[corner, 2]]}) + "\n")
    assert main(["slab", "twist", "--tiling", "s.jsonl"]) == 2
    assert capsys.readouterr() == (
        "", "error: s.jsonl line 2: slab tilings are defined for d=3\n"
    )


def test_slab_twist_takes_no_disk(in_tmp, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slab", "twist", "--tiling", "s.jsonl", "--disk", "disk.txt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --disk" in capsys.readouterr().err


def test_twist_refuses_a_file_of_another_region(in_tmp, capsys):
    from dimers.core import base_vertical_tiling, write_tilings

    region = make_box((2, 2, 2))
    write_tilings("t.jsonl", region, [base_vertical_tiling(region)])
    (in_tmp / "disk.txt").write_text("###\n###\n")
    for argv in (["--box", "2,2,4"], ["--disk", "disk.txt", "--height", "2"]):
        assert main(["twist", "--tiling", "t.jsonl", *argv]) == 2
        assert capsys.readouterr().err == f"error: tiling file region disagrees with {argv[0]}\n"


def test_slab_twist_refuses_a_file_of_another_region(in_tmp, capsys):
    from dimers.core import make_box
    from dimers.slab import horizontal_slab_tiling, write_slab_tilings

    region = make_box((4, 2, 2))
    write_slab_tilings("s.jsonl", region, [horizontal_slab_tiling(region)])
    assert main(["slab", "twist", "--tiling", "s.jsonl", "--box", "6,6,6"]) == 2
    assert capsys.readouterr().err == "error: tiling file region disagrees with --box\n"
    assert run(capsys, "slab", "twist", "--tiling", "s.jsonl", "--box", "4,2,2") == (0, "0,0,0\n")


@pytest.mark.parametrize(
    "flags",
    [
        ["--samples", "0", "--histogram", "h.csv"],
        ["--samples", "-3", "--histogram", "h.csv"],
        ["--workers", "0", "--histogram", "h.csv"],
        ["--burn-in", "-1", "--histogram", "h.csv"],
        ["--steps", "-5"],
    ],
    ids=["no-samples", "negative-samples", "no-workers", "negative-burn-in", "negative-steps"],
)
def test_sample_rejects_empty_or_negative_runs(in_tmp, capsys, flags):
    assert main(["sample", "--box", "2,2,4", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sample_histogram_takes_burn_in_but_not_steps(in_tmp, capsys):
    code, out = run(capsys, "sample", "--box", "2,2,2", "--burn-in", "20",
                    "--samples", "5", "--histogram", "h.csv")
    assert code == 0 and out.startswith("samples: 5 ")
    assert main(["sample", "--box", "2,2,2", "--steps", "10", "--burn-in", "20",
                 "--samples", "5", "--histogram", "h.csv"]) == 2
    assert capsys.readouterr().err == (
        "error: --steps applies to a final-state run, not --histogram or --svg\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--steps", "7", "--samples", "20", "--histogram", "h.csv"],
         "--steps applies to a final-state run, not --histogram or --svg"),
        (["--steps", "7", "--svg", "h.svg"],
         "--steps applies to a final-state run, not --histogram or --svg"),
        (["--samples", "20", "--histogram", "h.csv", "--out", "o.jsonl"],
         "--out applies to a final-state run, not --histogram or --svg"),
        (["--samples", "5", "--workers", "3", "--out", "o.jsonl"],
         "--samples applies to --histogram or --svg only"),
        (["--workers", "3"], "--workers applies to --histogram or --svg only"),
        (["--steps", "10", "--burn-in", "4", "--out", "o.jsonl"],
         "--burn-in applies to --histogram or --svg only"),
    ],
    ids=["steps-histogram", "steps-svg", "out-histogram", "samples-out", "workers", "burn-in-out"],
)
def test_sample_refuses_a_flag_its_mode_does_not_read(in_tmp, capsys, flags, message):
    assert main(["sample", "--box", "2,2,4", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(in_tmp.iterdir())  # refused before any file is written


_REGION_FLAGS = ("--box", "--disk", "--height")
_FUZZ_FLAGS = {
    ("count",): (*_REGION_FLAGS, "--formula"),
    ("enumerate",): (*_REGION_FLAGS, "--cap", "--out"),
    ("components",): (*_REGION_FLAGS, "--cap", "--extended", "--scratch", "--out"),
    ("flipfree",): (*_REGION_FLAGS, "--cap", "--out"),
    ("census",): (*_REGION_FLAGS, "--out"),
    ("twist",): (*_REGION_FLAGS, "--tiling"),
    ("pfaffian",): _REGION_FLAGS,
    ("sample",): (*_REGION_FLAGS, "--moves", "--steps", "--seed", "--burn-in", "--samples",
                  "--workers", "--histogram", "--svg", "--out"),
    ("slab", "census"): (*_REGION_FLAGS, "--cap"),
    ("slab", "twist"): ("--tiling", "--box"),
    ("ideals", "export"): (*_REGION_FLAGS, "--out", "--with-tiling-ideal", "--cap"),
    ("render",): (*_REGION_FLAGS, "--tiling"),
}
_SWITCHES = {"--formula", "--extended", "--with-tiling-ideal"}


_BAD_MANIFESTS = ("", ".", "missing-dir/m.json")


def _fuzz_argv():
    """A subcommand, a region flag, the required --tiling of the twist
    commands, for the sampler either an explicit small --steps or a
    histogram with explicit small --samples (its defaults run 100,000
    steps and 10,000 samples, and each mode refuses the other's flags),
    then up to four of the subcommand's flags; numbers include 0,
    negatives and non-numeric text, and files include missing ones and
    ones that are not UTF-8.  A --manifest path (a file, empty, a
    directory or under a missing one) and a --config file (valid,
    missing or not UTF-8) may come first."""
    number = st.sampled_from(["-3", "-1", "0", "1", "2", "3", "5", "x"])
    steps = st.one_of(st.integers(-5, 1000).map(str), number)
    values = {
        "--box": st.lists(st.sampled_from("0122333x"), min_size=1, max_size=3).map(",".join),
        "--disk": st.sampled_from(["disk.txt", "empty.txt", "missing.txt", "bad.bin"]),
        "--tiling": st.sampled_from(["base", "t.jsonl", "s.jsonl", "missing.jsonl", "bad.bin"]),
        "--moves": st.sampled_from(["flips", "flips+trits", "jumps"]),
        "--scratch": st.sampled_from([".", "missing-dir", "disk.txt"]),
        "--steps": steps,
        "--burn-in": steps,
    }
    for flag in ("--out", "--histogram", "--svg"):
        values[flag] = st.sampled_from(["o.txt", ".", "missing-dir/o.txt"])

    def pair(flag):
        if flag in _SWITCHES:
            return st.just([flag])
        return values.get(flag, number).map(lambda value: [flag, value])

    def command(words):
        flags = _FUZZ_FLAGS[words]
        head = [st.just([*words])]
        if "--box" in flags:
            region = [flag for flag in ("--box", "--disk") if flag in flags]
            head.append(st.sampled_from(region).flatmap(pair))
        if words == ("sample",):
            head.append(st.one_of(
                pair("--steps"),
                st.tuples(pair("--samples"), pair("--histogram")).map(lambda p: p[0] + p[1]),
            ))
        if words[-1] == "twist":
            head.append(pair("--tiling"))
        tail = st.lists(st.sampled_from(flags), max_size=4).flatmap(
            lambda drawn: st.tuples(*map(pair, drawn))
        ).map(lambda pairs: [token for p in pairs for token in p])
        return st.tuples(*head, tail).map(lambda parts: [t for part in parts for t in part])

    manifest_path = st.sampled_from(["m.json", *_BAD_MANIFESTS])
    manifest = st.one_of(st.just([]), manifest_path.map(lambda path: ["--manifest", path]))
    config_file = st.sampled_from(["conf.txt", "missing.conf", "bad.bin"])
    config = st.one_of(st.just([]), config_file.map(lambda path: ["--config", path]))
    return st.tuples(manifest, config, st.sampled_from(sorted(_FUZZ_FLAGS)).flatmap(command)).map(
        lambda parts: parts[0] + parts[1] + parts[2]
    )


def test_argv_fuzz_ends_in_an_exit_code(in_tmp, capsys):
    """Whatever the argv, main returns 0, 2, 3 or 4, or argparse exits 2;
    no other exception escapes.  A --manifest path that cannot be written
    ends in exit 2, from main with one error line."""
    from dimers.core import base_vertical_tiling, make_box, write_tilings
    from dimers.slab import horizontal_slab_tiling, write_slab_tilings

    (in_tmp / "disk.txt").write_text("###\n###\n")
    (in_tmp / "empty.txt").write_text("")
    (in_tmp / "bad.bin").write_bytes(b"\xff\xfe")
    (in_tmp / "conf.txt").write_text("box=2,2\n")
    box = make_box((2, 2, 2))
    write_tilings("t.jsonl", box, [base_vertical_tiling(box)])
    slab_box = make_box((4, 2, 2))
    write_slab_tilings("s.jsonl", slab_box, [horizontal_slab_tiling(slab_box)])

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(_fuzz_argv())
    @example(["sample", "--box", "2,2,4", "--samples", "0", "--histogram", "h.csv"])
    @example(["sample", "--box", "2,2,4", "--samples", "-3", "--histogram", "h.csv"])
    @example(["sample", "--box", "2,2,4", "--samples", "5", "--workers", "0",
              "--histogram", "h.csv"])
    @example(["slab", "census"])
    @example(["components", "--box", "2,2,2", "--extended", "--scratch", "missing-dir"])
    @example(["--manifest", "", "count", "--box", "2,2"])
    @example(["--manifest", ".", "count", "--box", "5,5,5"])
    def check(argv):
        bad_manifest = argv[0] == "--manifest" and argv[1] in _BAD_MANIFESTS
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in ((2,) if bad_manifest else (0, 2, 3, 4)), argv
            err = capsys.readouterr().err
            assert not bad_manifest or (err.startswith("error: ") and err.count("\n") == 1), argv
        capsys.readouterr()

    check()


def test_file_manifests_tally_the_printed_values(in_tmp, capsys):
    from dimers.core import make_box, write_tilings
    from dimers.explore import enumerate_tilings
    from dimers.slab import enumerate_slab_tilings, write_slab_tilings

    box = make_box((2, 3, 4))
    write_tilings("F.jsonl", box, enumerate_tilings(box))
    code, out = run(capsys, "twist", "--box", "2,3,4", "--tiling", "F.jsonl")
    assert code == 0 and len(out.splitlines()) == 1845
    manifest = json.loads((in_tmp / "run_manifest.json").read_text())
    assert manifest["twists"] == {"-1": 10, "0": 1825, "1": 10}
    assert list(manifest["twists"]) == ["-1", "0", "1"]
    slab_box = make_box((4, 4, 2))
    write_slab_tilings("S.jsonl", slab_box, enumerate_slab_tilings(slab_box))
    code, out = run(capsys, "slab", "twist", "--tiling", "S.jsonl")
    assert code == 0 and out.splitlines() == ["0,0,0"] * 165
    manifest = json.loads((in_tmp / "run_manifest.json").read_text())
    assert manifest["triple_twists"] == {"0,0,0": 165}


def test_twist_of_a_file_without_tilings_prints_nothing(in_tmp, capsys):
    from dimers.core import make_box, write_tilings

    assert write_tilings("none.jsonl", make_box((2, 2, 2)), []) == 0
    assert run(capsys, "twist", "--box", "2,2,2", "--tiling", "none.jsonl") == (0, "")


@pytest.mark.parametrize(
    "first, message",
    [
        ([[0, 0, 0], 5], "domino [[0, 0, 0], 5] is not a domino of the region"),
        ([[0, 0, 0], -1], "domino [[0, 0, 0], -1] is not a domino of the region"),
        ([[0, 0], 2], "domino [[0, 0], 2] is not a domino of the region"),
        ([[0, 1, 0], 0], "domino [[0, 1, 0], 2] overlaps another domino"),
        ([[0, 0, 0], "2"], 'domino [[0, 0, 0], "2"] has a non-integer coordinate or axis'),
    ],
    ids=["axis-5", "axis-minus-1", "short-cell", "overlap", "axis-str"],
)
def test_malformed_domino_ends_in_one_error_line(in_tmp, capsys, first, message):
    from dimers.core import base_vertical_tiling, make_box, write_tilings

    box = make_box((2, 2, 2))
    write_tilings("bad.jsonl", box, [base_vertical_tiling(box)])
    with open("bad.jsonl", "a", encoding="utf-8") as fh:
        rest = [[[0, 1, 0], 2], [[1, 0, 0], 2], [[1, 1, 0], 2]]
        fh.write(json.dumps({"dominoes": [first, *rest]}) + "\n")
    for argv in (_TWIST_FILE, _RENDER_FILE):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad.jsonl line 3: {message}\n"


def test_a_negative_axis_is_not_a_domino_of_the_region(in_tmp, capsys):
    # axis -2 must not read the cell's neighbour row from its end, where
    # it would find a y-domino and give this file a twist
    (in_tmp / "neg.jsonl").write_text(
        '{"d": 3, "kind": "box", "dims": [2, 2, 2]}\n'
        '{"dominoes": [[[0,0,0],0], [[0,1,0],0], [[0,0,1],-2], [[1,0,1],1]]}\n'
    )
    assert main(["twist", "--box", "2,2,2", "--tiling", "neg.jsonl"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: neg.jsonl line 2: domino [[0, 0, 1], -2] is not a domino of the region\n"


def test_a_file_command_reports_its_first_failing_line(in_tmp, capsys):
    # lines are twisted as they are read, so a non-integral twist on line 2
    # (exit 4) is reported before the malformed line 3 is read
    from itertools import product

    from dimers.core import make_region, tiling_json
    from dimers.errors import CalibrationError
    from dimers.explore import enumerate_tilings
    from dimers.twist import twist

    cut = {(2, 1, 3), (2, 2, 3)}
    region = make_region([c for c in product(range(3), range(3), range(4)) if c not in cut], d=3)
    record = {"d": 3, "kind": "general", "cells": [list(c) for c in region.cells]}
    (in_tmp / "cut.json").write_text(json.dumps(record))

    def non_integral(tiling):
        try:
            twist(tiling)
        except CalibrationError:
            return True
        return False

    bad = next(t for t in enumerate_tilings(region) if non_integral(t))
    (in_tmp / "cut.jsonl").write_text(
        f"{json.dumps(record)}\n{tiling_json(bad)}\n" + '{"dominoes": [[0, 0\n'
    )
    assert main(["twist", "--disk", "cut.json", "--tiling", "cut.jsonl"]) == 4
    assert capsys.readouterr() == ("", "error: non-integral twist 1/4\n")
    # a region that disagrees is refused from the header, before any line
    assert main(["twist", "--box", "3,3,4", "--tiling", "cut.jsonl"]) == 2
    assert capsys.readouterr() == ("", "error: tiling file region disagrees with --box\n")


def _traced_peak(argv) -> int:
    """The peak of the memory traced while main(argv) runs with stdout
    sent to the null device, in bytes."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "argv, lines, bound",
    [
        (["twist", "--box", "2,3,5", "--tiling"], None, 160),
        (["render", "--box", "2,3,5", "--tiling"], 1000, 300),
        (["slab", "twist", "--tiling"], None, 800),
    ],
    ids=["twist", "render", "slab-twist"],
)
def test_a_file_command_holds_one_tiling_at_a_time(in_tmp, capsys, argv, lines, bound):
    """Repeating a file's lines 4x grows the peak by what the command
    buffers per line (an int, rendered text or a triple, and the manifest's
    list), not by the tilings read: these measure about 80, 170 and 650
    bytes per line, and holding every tiling read in a list adds about 300
    per 2x3x5 tiling and 500 per 4x4x2 slab tiling."""
    from dimers.core import write_tilings
    from dimers.explore import enumerate_tilings
    from dimers.slab import enumerate_slab_tilings, write_slab_tilings

    if argv[0] == "slab":
        box = make_box((4, 4, 2))
        write_slab_tilings("file.jsonl", box, enumerate_slab_tilings(box))
    else:
        box = make_box((2, 3, 5))
        write_tilings("file.jsonl", box, enumerate_tilings(box))
    header, *body = (in_tmp / "file.jsonl").read_text().splitlines(True)
    body = body[:lines]
    for name, copy in (("warm", body[:1]), ("once", body), ("four", body * 4)):
        (in_tmp / f"{name}.jsonl").write_text(header + "".join(copy))
    assert main([*argv, "warm.jsonl"]) == 0  # fills the per-region caches untraced
    once = _traced_peak([*argv, "once.jsonl"])
    four = _traced_peak([*argv, "four.jsonl"])
    assert (four - once) / (3 * len(body)) < bound
