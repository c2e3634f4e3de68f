"""The benchmark's workloads: which jobs each one runs, and why.

A job is one `dimers` CLI call (or, for the 2D polyomino sweep that no
subcommand reaches, one `python -c` program), run in a working directory
of its own.  `tilings` is the number of tilings the job's output accounts
for: the tilings it counts, enumerates, writes, reads, censuses or draws.
`steps` is the number of chain window proposals of a sampler job.  Both
are pinned, so the rates the benchmark reports move only with time.

Times in the comments are one run of each job in a fresh process at the
commit that added the benchmark, on a shared 2-core x86 container with
Python 3.11.  That host's speed swings by up to 2x between states that
last 10 to 30 s, so run.py times each job against a reference run next to
it and takes the median over rounds, and each workload's round is cut to
about 5 s so that a 25 s run holds three or more.  The larger first-draft
jobs were cut to fit: 5x4x4 count 5.9 s, a 3x3 cylinder at height 40
7.8 s, flipfree 4x4x2 8.9 s, the twist census of 2x4x4 2.8 s, the sweep
to 10 cells 3.9 s, twist of the 32000 tilings of 2x4x4 from a file 6.9 s,
a 1e6-step flips+trits chain 7.8 s.

Sampler CLI quirks the sizes account for:
  * with `--histogram`, `--steps` is ignored, so histogram jobs are sized by
    `--samples`; they make burn-in + samples x thinning proposals, with
    thinning = cells;
  * `--burn-in 0` (the default) means 100 x cells, so zero burn-in cannot
    be requested.

Sizes measured as unsafe on a 2-core, 8 GB machine, kept out on purpose:
  * `ideals export --box 6,6 --with-tiling-ideal` was OOM-killed at 7.6 GB;
  * `slab census --box 4,4,4` takes 80 s;
  * `count --box 6,4,4` takes 93 s.
"""
from __future__ import annotations

import shutil
from pathlib import Path

from checks import (
    box_count_is,
    component_sizes_are,
    cylinder_count_is,
    exact_lines,
    flip_free_are,
    histogram_is,
    ideal_export_is,
    sampled_tiling_is,
    tiling_file_is,
    twist_census_is,
    twists_match_census,
)

MANIFEST = "manifest.json"

SQUARE_3 = "###\n###\n###\n"
ELL_8 = "##\n##\n####\n"  # 8-cell L: a 2-wide column on a 4-long foot

CENSUS_235 = {-1: 124, 0: 14072, 1: 124}

SWEEP = """\
from dimers.explore import flip_connected_2d, iter_free_simply_connected_polyominoes
shapes = balanced = connected = 0
for cells in iter_free_simply_connected_polyominoes(8):
    shapes += 1
    if sum(1 if (x + y) % 2 == 0 else -1 for x, y in cells) == 0:
        balanced += 1
        connected += flip_connected_2d(cells)
print(f"shapes: {shapes} balanced: {balanced} flip-connected: {connected}")
"""


class Job:
    """One job: check(stdout, job_dir) returns None or why the output is
    wrong.  argv are CLI arguments, where "{seed}" takes the workload seed;
    code is a python -c program run instead of a CLI call.  files are
    (name, text) pairs written into the job's directory first, and reuse
    names an earlier job of the same round and a file of it copied in.  A
    job with a known_defect still fails and is counted failed; the text
    says which open defect it shows."""

    def __init__(self, name: str, check, tilings: int, *, argv: tuple[str, ...] = (),
                 code: str | None = None, steps: int = 0,
                 files: tuple[tuple[str, str], ...] = (),
                 reuse: tuple[str, str] | None = None, known_defect: str | None = None):
        self.name = name
        self.check = check
        self.tilings = tilings
        self.argv = argv
        self.code = code
        self.steps = steps
        self.files = files
        self.reuse = reuse
        self.known_defect = known_defect

    def arguments(self, seed: int) -> list[str]:
        return [arg.format(seed=seed) for arg in self.argv]


def _histogram_steps(dims: tuple[int, int, int], samples: int) -> int:
    cells = dims[0] * dims[1] * dims[2]
    return 100 * cells + samples * cells


WORKLOADS: dict[str, list[Job]] = {
    # Counting does nearly all the work and no tiling is enumerated.  The
    # axis-permutation pair and the dense cylinder automaton are ROADMAP
    # item 3's targets: sweep order, and dense powering vs sparse steps.
    "count": [
        # 0.9 s; profile width 16; the README's value
        Job("box-4x4x8", box_count_is((4, 4, 8), 175220727982196365632),
            175220727982196365632, argv=("count", "--box", "4,4,8")),
        # 0.2 s; width 12.  The same box with its long axis first (next
        # job) has width 18 and takes 1.0 s
        Job("box-3x4x6", box_count_is((3, 4, 6), 72926048233),
            72926048233, argv=("count", "--box", "3,4,6")),
        Job("box-6x3x4", box_count_is((6, 3, 4), 72926048233),
            72926048233, argv=("count", "--box", "6,3,4")),
        # 1.4 s; squares the dense 252x252 transfer matrix even at height
        # 2 (the README's 3x3x2 count); the automaton itself takes 0.02 s
        Job("cylinder-3x3-h2", cylinder_count_is(SQUARE_3, 2, 229),
            229, argv=("count", "--disk", "square3.txt", "--height", "2"),
            files=(("square3.txt", SQUARE_3),)),
        # 0.7 s; a non-rectangular disk through the automaton
        Job("cylinder-L8-h60",
            cylinder_count_is(ELL_8, 60, 34007037789076946297412954200061772503386288468190109108491084432033),
            34007037789076946297412954200061772503386288468190109108491084432033,
            argv=("count", "--disk", "ell8.txt", "--height", "60"),
            files=(("ell8.txt", ELL_8),)),
        # 0.3 s; 2D, also checked against the product formula
        Job("box-12x12", box_count_is((12, 12), 53060477521960000),
            53060477521960000, argv=("count", "--box", "12,12")),
        # 0.2 s; a 4D box
        Job("box-2x2x2x6", box_count_is((2, 2, 2, 6), 92524801),
            92524801, argv=("count", "--box", "2,2,2,6")),
    ],
    # In-memory enumeration, flip and trit listing, `encode` keys,
    # union-find and pairwise twist sums; counting only does the cap check.
    # ROADMAP items 2 (move kernel, trit signs) and 4 (one census layer).
    "census": [
        # 1.7 s; flip census and trit graph
        Job("components-2x3x4", component_sizes_are((2, 3, 4), (1825, 5, 5, 5, 5)),
            1845, argv=("components", "--box", "2,3,4")),
        # 0.4 s; acceptance criterion 02's box
        Job("components-3x3x2", component_sizes_are((3, 3, 2), (227, 1, 1)),
            229, argv=("components", "--box", "3,3,2")),
        # 1.3 s; a full pairwise twist sum per tiling; `stream` reads the
        # same box's tilings from a file
        Job("census-2x3x5", twist_census_is((2, 3, 5), CENSUS_235),
            14320, argv=("census", "--box", "2,3,5")),
        # 0.3 s; list_flips on every tiling
        Job("flipfree-3x3x2", flip_free_are((3, 3, 2), 2),
            229, argv=("flipfree", "--box", "3,3,2")),
        # 0.3 s; Kasteleyn determinant, the third twist route
        Job("pfaffian-4x4x2", exact_lines("30976"),
            32000, argv=("pfaffian", "--box", "4,4,2")),
        # 0.4 s; the slab census ROADMAP item 4 moves into slab.py
        Job("slab-census-4x4x2",
            exact_lines("slab tilings: 165", "flip components: 1", "triple twists: (0, 0, 0)"),
            165, argv=("slab", "census", "--box", "4,4,2")),
        # 0.4 s; the sweep of acceptance criterion 09 up to 8 cells: 404
        # shapes, 256 balanced, 293 tilings.  Up to 10 cells it takes 3.9 s,
        # nearly all of it generating and canonicalising shapes
        Job("polyomino-sweep-8",
            exact_lines("shapes: 404 balanced: 256 flip-connected: 256"),
            293, code=SWEEP),
    ],
    # The same enumeration, `encode` and census layers, but through disk:
    # JSONL writes and reads and the SQLite visited set.  A change that
    # speeds up in-memory keys but slows I/O shows here instead of
    # cancelling out inside `census`.
    "stream": [
        # 1.1 s
        Job("enumerate-2x3x5", tiling_file_is((2, 3, 5), "F.jsonl"),
            14320, argv=("enumerate", "--box", "2,3,5", "--out", "F.jsonl")),
        # 2.3 s; reads the previous job's file
        Job("twist-file-2x3x5", twists_match_census(CENSUS_235),
            14320, argv=("twist", "--box", "2,3,5", "--tiling", "F.jsonl"),
            reuse=("enumerate-2x3x5", "F.jsonl")),
        # 1.5 s; disk-backed census in a fresh scratch dir
        Job("extended-2x3x4", component_sizes_are((2, 3, 4), (1825, 5, 5, 5, 5)),
            1845, argv=("components", "--box", "2,3,4", "--extended", "--scratch", ".")),
        # 0.3 s; the same command on the previous job's visited set
        Job("extended-2x3x4-rerun", component_sizes_are((2, 3, 4), (1825, 5, 5, 5, 5)),
            1845, argv=("components", "--box", "2,3,4", "--extended", "--scratch", "."),
            reuse=("extended-2x3x4", "visited.sqlite"),
            known_defect="ROADMAP item 5: a rerun on a used scratch dir prints "
                         "'tilings: 0' because the visited set persists and the "
                         "components do not"),
        # 0.7 s, 3.6 MB file; 39340 tiling binomials
        Job("ideals-4x6", ideal_export_is((4, 6), "ideals.txt", edges=38, flips=15),
            281, argv=("ideals", "export", "--box", "4,6", "--with-tiling-ideal",
                       "--out", "ideals.txt")),
    ],
    # The chain and its per-trit twist delta do all the work; nothing is
    # enumerated or counted.  ROADMAP item 2's trit-sign table.
    "sample": [
        # 1.2 s
        Job("histogram-4x4x10", histogram_is((4, 4, 10), 1500, "hist.csv"),
            1500, steps=_histogram_steps((4, 4, 10), 1500),
            argv=("sample", "--box", "4,4,10", "--moves", "flips+trits",
                  "--samples", "1500", "--seed", "{seed}", "--histogram", "hist.csv")),
        # 0.9 s
        Job("histogram-6x6x6", histogram_is((6, 6, 6), 400, "hist.csv"),
            400, steps=_histogram_steps((6, 6, 6), 400),
            argv=("sample", "--box", "6,6,6", "--moves", "flips+trits",
                  "--samples", "400", "--seed", "{seed}", "--histogram", "hist.csv")),
        # 1.2 s; the flips-only ceiling
        Job("out-flips-4x4x20", sampled_tiling_is((4, 4, 20), "out.jsonl", twist_preserved=True),
            1, steps=1_000_000,
            argv=("sample", "--box", "4,4,20", "--moves", "flips", "--steps", "1000000",
                  "--seed", "{seed}", "--out", "out.jsonl")),
        # 1.6 s; every accepted trit recomputes a pairwise twist delta
        Job("out-trits-4x4x20", sampled_tiling_is((4, 4, 20), "out.jsonl", twist_preserved=False),
            1, steps=200_000,
            argv=("sample", "--box", "4,4,20", "--moves", "flips+trits", "--steps", "200000",
                  "--seed", "{seed}", "--out", "out.jsonl")),
    ],
}


def prepare(job: Job, job_dir: Path, earlier: dict[str, Path]) -> None:
    """Create the job's working directory with its input files; `earlier`
    maps the names of jobs already run in this pass to their directories."""
    job_dir.mkdir(parents=True)
    for name, text in job.files:
        (job_dir / name).write_text(text, encoding="utf-8")
    if job.reuse is not None:
        source, name = job.reuse
        shutil.copy2(earlier[source] / name, job_dir / name)
