"""Output checks for benchmark jobs.

Every check takes the job's standard output and its working directory and
returns None when the output is right, or a one-line reason.  Checks run
outside the timed region.  Besides pinned values, several checks compute
the same number by a second route through the package (the profile DP for
a cylinder, `count_region` for a census total, `read_tilings` plus
`validate` for a sampled tiling), so a pinned value that is itself wrong
cannot pass silently.
"""
from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from pathlib import Path


@lru_cache(maxsize=None)
def box_count(dims: tuple[int, ...]) -> int:
    from dimers.core import make_box
    from dimers.counting import count_region

    return count_region(make_box(dims))


def disk_region(text: str):
    """Region of a #/. disk file, as the CLI reads it (last row is y=0)."""
    from dimers.core import make_region

    rows = [row for row in text.splitlines() if row.strip()]
    cells = [
        (c, r) for r, row in enumerate(reversed(rows)) for c, ch in enumerate(row) if ch == "#"
    ]
    return make_region(cells, d=2)


@lru_cache(maxsize=None)
def cylinder_count_dp(disk_text: str, height: int) -> int:
    """The cylinder's count by the profile DP, not the plug automaton."""
    from dimers.core import make_cylinder
    from dimers.counting import count_region

    return count_region(make_cylinder(disk_region(disk_text), height))


def _lines(stdout: str) -> list[str]:
    return stdout.strip().splitlines()


def exact_lines(*expected: str):
    def check(stdout: str, job_dir: Path):
        got = _lines(stdout)
        if got != list(expected):
            return f"expected {list(expected)!r}, got {got[:8]!r}"
        return None

    return check


def box_count_is(dims: tuple[int, ...], expected: int):
    """Pinned count of a box; a 2D box is also checked against the
    floating-point product formula, to its precision."""

    def check(stdout: str, job_dir: Path):
        if _lines(stdout) != [str(expected)]:
            return f"expected {expected}, got {_lines(stdout)[:2]!r}"
        if len(dims) == 2:
            from dimers.counting import count_rect_2d_formula

            if abs(count_rect_2d_formula(*dims) - expected) > 1e-9 * expected:
                return "2D product formula disagrees with the pinned count"
        return None

    return check


def cylinder_count_is(disk_text: str, height: int, expected: int):
    def check(stdout: str, job_dir: Path):
        if _lines(stdout) != [str(expected)]:
            return f"expected {expected}, got {_lines(stdout)[:2]!r}"
        if cylinder_count_dp(disk_text, height) != expected:
            return "profile DP on make_cylinder disagrees with the pinned count"
        return None

    return check


def component_sizes_are(dims: tuple[int, ...], sizes: tuple[int, ...]):
    expected = [
        f"tilings: {sum(sizes)}",
        f"components: {len(sizes)}",
        "sizes: " + ", ".join(map(str, sizes)),
    ]

    def check(stdout: str, job_dir: Path):
        if _lines(stdout) != expected:
            return f"expected {expected!r}, got {_lines(stdout)[:3]!r}"
        if box_count(dims) != sum(sizes):
            return f"census total {sum(sizes)} != count_region {box_count(dims)}"
        return None

    return check


def twist_census_is(dims: tuple[int, ...], census: dict[int, int]):
    def check(stdout: str, job_dir: Path):
        expected = [f"{v},{c}" for v, c in sorted(census.items())]
        if _lines(stdout) != expected:
            return f"expected {expected!r}, got {_lines(stdout)[:8]!r}"
        if sum(census.values()) != box_count(dims):
            return "census total disagrees with count_region"
        return None

    return check


def flip_free_are(dims: tuple[int, ...], n: int):
    """n tilings, each printed as a hex encoding that decodes to a valid
    tiling of the box admitting no flip."""

    def check(stdout: str, job_dir: Path):
        from dimers.core import decode, make_box, validate
        from dimers.moves import list_flips

        lines = _lines(stdout)
        if not lines or lines[0] != f"flip-free tilings: {n}" or len(set(lines[1:])) != n:
            return f"expected {n} distinct flip-free tilings, got {lines[:1]!r}"
        region = make_box(dims)
        for line in lines[1:]:
            tiling = decode(bytes.fromhex(line), region)
            if validate(tiling) is not None or list_flips(tiling):
                return f"printed tiling {line} is not a flip-free tiling"
        return None

    return check


def tiling_file_is(dims: tuple[int, ...], name: str):
    """`enumerate --out name`: one line per tiling, all distinct, as many
    as count_region says."""

    def check(stdout: str, job_dir: Path):
        from dimers.core import make_box, region_to_record

        total = box_count(dims)
        if _lines(stdout) != [f"{total} tilings -> {name}"]:
            return f"expected '{total} tilings -> {name}', got {_lines(stdout)[:1]!r}"
        with open(job_dir / name, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            body = [line for line in fh if line.strip()]
        if header != region_to_record(make_box(dims)):
            return f"tiling file header {header!r} is not the box"
        if len(body) != total or len(set(body)) != total:
            return f"tiling file holds {len(body)} lines, {len(set(body))} distinct, not {total}"
        return None

    return check


def twists_match_census(census: dict[int, int]):
    """`twist --tiling F` over every tiling: the printed values, tallied,
    must give the census that `census` computes by enumeration."""

    def check(stdout: str, job_dir: Path):
        try:
            tally = Counter(int(line) for line in _lines(stdout))
        except ValueError:
            return f"non-integer twist in {_lines(stdout)[:2]!r}"
        if dict(tally) != census:
            return f"tally {dict(sorted(tally.items()))} != census {census}"
        return None

    return check


def ideal_export_is(dims: tuple[int, ...], name: str, edges: int, flips: int):
    """Header counts of the export, and one tiling binomial per unordered
    pair of the count_region tilings."""

    def check(stdout: str, job_dir: Path):
        if _lines(stdout) != [f"ideal generators -> {name}"]:
            return f"unexpected output {_lines(stdout)[:1]!r}"
        n = box_count(dims)
        pairs = n * (n - 1) // 2
        lines = (job_dir / name).read_text(encoding="utf-8").splitlines()
        headers = [line for line in lines if line.startswith("# ") and not line.startswith("# region")]
        want = [f"# edges {edges}", f"# flip generators {flips}", f"# tiling binomials {pairs}"]
        if headers != want:
            return f"headers {headers!r} != {want!r}"
        binomials = [line for line in lines if line.startswith("+")]
        if len(binomials) != flips + pairs:
            return f"{len(binomials)} binomial lines, expected {flips + pairs}"
        return None

    return check


def tw_max_bound(dims: tuple[int, ...]) -> int:
    """Upper bound on |twist| for an LxMxN box: LMN * min(L, M, N) / 16
    (the bound acceptance criterion 07 checks on enumerated boxes)."""
    l, m, n = dims
    return l * m * n * min(dims) // 16


def histogram_is(dims: tuple[int, ...], samples: int, name: str):
    """The summary line reports `samples` draws; the CSV counts sum to
    `samples` and every twist is an integer within the tw_max bound."""

    def check(stdout: str, job_dir: Path):
        lines = _lines(stdout)
        if not lines or not lines[-1].startswith(f"samples: {samples} mean: "):
            return f"unexpected summary {lines[-1:]!r}"
        rows = (job_dir / name).read_text(encoding="utf-8").splitlines()
        if rows[0] != "twist,count":
            return f"bad histogram header {rows[0]!r}"
        bound = tw_max_bound(dims)
        total = 0
        for row in rows[1:]:
            value, count = (int(x) for x in row.split(","))
            if abs(value) > bound:
                return f"twist {value} exceeds the bound {bound}"
            total += count
        if total != samples:
            return f"histogram counts sum to {total}, not {samples}"
        return None

    return check


def sampled_tiling_is(dims: tuple[int, ...], name: str, twist_preserved: bool):
    """`sample --out`: one valid tiling of the box; a flips-only chain must
    also keep the twist of the all-vertical start."""

    def check(stdout: str, job_dir: Path):
        from dimers.core import base_vertical_tiling, make_box, read_tilings, validate

        if _lines(stdout) != [f"final state -> {name}"]:
            return f"unexpected output {_lines(stdout)[:1]!r}"
        region, tilings = read_tilings(job_dir / name)
        if region != make_box(dims) or len(tilings) != 1:
            return f"expected one tiling of the {dims} box"
        report = validate(tilings[0], region)
        if report is not None:
            return f"sampled tiling is invalid: {report}"
        if twist_preserved:
            from dimers.twist import twist

            if twist(tilings[0]) != twist(base_vertical_tiling(region)):
                return "a flips-only chain changed the twist"
        return None

    return check


def manifest_problem(job_dir: Path, subcommand: str):
    """Every CLI run writes its manifest where --manifest points."""
    try:
        record = json.loads((job_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"no readable manifest: {exc}"
    if record.get("command") != subcommand:
        return f"manifest command {record.get('command')!r} != {subcommand!r}"
    return None
