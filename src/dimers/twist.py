"""The twist invariant, three independent ways.

* pretwist: a pairwise shadow-crossing sum over the dominoes.  For each
  axis k, two dominoes running along the other two axes whose shadows on
  the plane perpendicular to k cross in one unit square contribute the
  sign of the crossing (the Levi-Civita sign of the two domino axes and
  k times each domino's orientation, +1 when its white cell is the lower
  one) times the sign of their separation along k.  Such a pair shares a
  line of cells along k, so one walk, `_line_sums`, goes up each line
  once with running sums of the marks below.  It reads a partner
  sequence (-1 on an uncovered cell) and a line table built once per
  region and axis from Region.neighbor_table.  pretwist, twist and the
  slab pair twists walk every line (`_crossings`); trit_sign walks only
  the z-lines a trit changes (`_crossings_through`);
  counting.twist_polynomial runs the same walk inside its profile sweep,
  reading the marks from the line table.  twist and the census share one
  shift by the reference tiling.
  The normalization kappa = 1/8 and the global sign +1 are declared
  constants (`calibration`); a twist that is not an integer, or a trit
  step other than +-1, raises CalibrationError instead of rescaling.
* twist_by_path: signed trit count along a flip/trit path from the base
  tiling; telescopes to the formula value and cross-checks it.
* pfaffian_alternating_sum: determinant of the signed white/black
  biadjacency, which equals the census alternating sum up to a global
  sign.

twist is an integer in 3D and a mod-2 residue in dimension 4 and up.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import (
    BLACK,
    Cell,
    Region,
    Tiling,
    WHITE,
    base_vertical_tiling,
    color_sign,
    matched,
    matchings,
)
from .errors import (
    CalibrationError,
    InvalidRegion,
    NoBaseTiling,
    NotReachable,
    UnbalancedRegion,
)

KASTELEYN_RULE_ID = "x:+1 y:(-1)^x z:(-1)^(x+y)"

_PATH_CAP = 1_000_000

class Calibration(NamedTuple):
    kappa: Fraction
    sign: int
    kasteleyn_rule: str

    def as_dict(self) -> dict:
        return {
            "kappa": str(self.kappa),
            "sign": self.sign,
            "kasteleyn_rule": self.kasteleyn_rule,
        }


@lru_cache(maxsize=256)
def _line_table(region: Region, k: int) -> tuple[tuple, tuple[int, ...], tuple[dict, ...]]:
    """The 3D region's lines along axis k, each its cells in increasing k;
    each cell's line number; and each cell's marks, partner -> (a-mark,
    b-mark).  With a < b the other two axes and c the colour of the
    domino's low cell (this cell for a step along +axis, an even code), a
    partner along a marks (s*c, 0), s = (-1)^k the Levi-Civita sign of
    (a, b, k), and one along b (0, c); one along k, and -1 for an
    uncovered cell, (0, 0)."""
    a, b = [x for x in range(3) if x != k]
    factors = {a: ((-1) ** k, 0), b: (0, 1), k: (0, 0)}
    numbers: dict[Cell, int] = {}
    line_of = [numbers.setdefault(cell[:k] + cell[k + 1 :], len(numbers)) for cell in region.cells]
    lines: list[list[int]] = [[] for _ in numbers]
    for i, n in enumerate(line_of):
        lines[n].append(i)  # in increasing k, as the cells sort
    marks = []
    for cell, row in zip(region.cells, region.neighbor_table):
        mark = {-1: (0, 0)}
        for code, j in enumerate(row):
            if j >= 0:
                c = (-1) ** code * color_sign(cell)
                mark[j] = tuple(f * c for f in factors[code // 2])
        marks.append(mark)
    return tuple(map(tuple, lines)), tuple(line_of), tuple(marks)


def _line_sums(lines, marks, partner) -> int:
    """Crossing sum of the partner's dominoes over the given lines, each
    walked upward with the sums A and B of the a- and b-marks below: an
    a-mark c adds -c*B, a b-mark c adds c*A.  A partner that is not a
    neighbour raises KeyError."""
    total = 0
    for line in lines:
        below_a = below_b = 0
        for i in line:
            ca, cb = marks[i][partner[i]]
            total += cb * below_a - ca * below_b
            below_a += ca
            below_b += cb
    return total


def _crossings(region: Region, partner, k: int) -> int:
    """Sum of crossing signs along axis k over unordered pairs of the
    partner's dominoes, -1 marking an uncovered cell."""
    lines, _, marks = _line_table(region, k)
    return _line_sums(lines, marks, partner)


def _crossings_through(region: Region, partner, cells) -> int:
    """The crossing sum along z over the z-lines through the given cells,
    the part of the sum a trit on those cells changes (trit_sign)."""
    lines, line_of, marks = _line_table(region, 2)
    return _line_sums([lines[n] for n in {line_of[i] for i in cells}], marks, partner)


# ---------------------------------------------------------------------------
# calibration
#
# The pairwise formula fixes the twist up to a normalization kappa (over
# ordered pairs) and a global sign.  kappa = 1/8 is the one that makes the
# twist an integer that every trit steps by exactly one: on the 3x3x2 box
# the ordered sum is 0 on the large flip component and -8/+8 on the two
# flip-free tilings, and every trit steps it by 8.  The sign is declared
# +1, so a positive trit is by definition one the formula scores +1.  The
# test suite checks these invariants, and the agreement of the three axis
# pretwists, on every tiling of 3x3x2, 2x2x2 and 2x2x4.

_CALIBRATION = Calibration(kappa=Fraction(1, 8), sign=1, kasteleyn_rule=KASTELEYN_RULE_ID)


def calibration() -> Calibration:
    """The twist normalization kappa = 1/8, the global sign +1 and the
    Kasteleyn sign rule, as every manifest records them."""
    return _CALIBRATION


def pretwist(tiling: Tiling, axis: int) -> Fraction:
    """Calibrated pairwise sum along one axis (3D only)."""
    if tiling.region.d != 3:
        raise InvalidRegion("pretwist is defined for d=3 only")
    if axis not in (0, 1, 2):
        raise InvalidRegion(f"axis must be 0, 1 or 2, got {axis}")
    return _calibrated(_crossings(tiling.region, tiling.partner, axis))


def _calibrated(total: int) -> Fraction:
    """A crossing sum (over unordered pairs) scaled to twist units."""
    cal = calibration()
    return cal.kappa * (cal.sign * 2 * total)


@lru_cache(maxsize=256)
def _reference_tiling(region: Region) -> Tiling:
    """Base of the twist: the all-vertical tiling when it exists, else the
    first tiling in enumeration order, regions.matchings' first."""
    try:
        return base_vertical_tiling(region)
    except NoBaseTiling:
        partner = [-1] * region.n_cells
        if region.n_cells % 2 == 0:
            for _ in matchings(region.forward, partner):
                return Tiling(region, tuple(partner))
        raise InvalidRegion("region has no tilings, twist is undefined")


@lru_cache(maxsize=4096)
def _weight_twist(region: Region, weight: int) -> int:
    """Integer twist of a tiling of the region whose crossing sum along z
    is `weight`: its calibrated pretwist minus the reference tiling's.
    Memoised, as a file or census of one region meets few weights."""
    reference = _crossings(region, _reference_tiling(region).partner, 2)
    value = _calibrated(weight - reference)
    if value.denominator != 1:
        raise CalibrationError(f"non-integral twist {value}")
    return int(value)


def twist(tiling: Tiling) -> int:
    """Integer twist of a 3D tiling relative to the region's base tiling."""
    region = tiling.region
    if region.d != 3:
        raise InvalidRegion("pretwist is defined for d=3 only")
    return _weight_twist(region, _crossings(region, tiling.partner, 2))


def trit_sign(region: Region, partner, removed_pairs, added_pairs) -> int:
    """Twist step of a trit that replaces the dominoes on removed_pairs
    (index pairs of the tiling `partner`) by those on added_pairs.

    In 3D the step is the kernel's sum over the z-lines of the trit's
    cells, the only ones it changes, after the trit minus before,
    calibrated, and must be +1 or -1.  In dimension 4 and up the twist
    lives in Z/2, every trit flips it, and the step is reported as +1.
    """
    if region.d >= 4:
        return 1
    cells = [i for pair in removed_pairs for i in pair]
    after = _crossings_through(region, matched(partner, added_pairs), cells)
    value = _calibrated(after - _crossings_through(region, partner, cells))
    if value not in (1, -1):
        raise CalibrationError(f"trit changed the twist by {value}")
    return int(value)


# ---------------------------------------------------------------------------
# the path oracle


def _signed_neighbors(region: Region, partner):
    from .moves import flip_neighbors, trit_neighbors

    for nxt in flip_neighbors(region, partner):
        yield nxt, 0
    for nxt, removed, added in trit_neighbors(region, partner):
        yield nxt, trit_sign(region, partner, removed, added)


def twist_by_path(tiling: Tiling, *, cap: int = _PATH_CAP) -> int:
    """Sum of trit signs along a flip/trit path from the base tiling.

    Breadth-first search over partner tuples; path independence is checked
    separately by the test suite's cycle-space sweep.  Raises NotReachable
    when the search cap is hit first.
    """
    from .explore import search_path

    region = tiling.region
    steps = search_path(
        _reference_tiling(region).partner,
        tiling.partner,
        lambda partner: _signed_neighbors(region, partner),
        cap,
    )
    if steps is None:
        raise NotReachable("target tiling is not flip/trit reachable from the base")
    return sum(sign for _, sign in steps)


def twist_mod2(tiling: Tiling, *, cap: int = _PATH_CAP) -> int:
    """Parity of the trit count along any path from the base (d >= 4)."""
    if tiling.region.d < 4:
        raise InvalidRegion("twist_mod2 is the d >= 4 invariant; use twist in 3D")
    return twist_by_path(tiling, cap=cap) % 2


# ---------------------------------------------------------------------------
# Kasteleyn matrix and the alternating-sum determinant


class KasteleynMatrix(NamedTuple):
    whites: tuple[Cell, ...]
    blacks: tuple[Cell, ...]
    entries: tuple[tuple[int, ...], ...]


def _edge_sign(low: Cell, axis: int) -> int:
    if axis == 0:
        return 1
    if axis == 1:
        return -1 if low[0] % 2 else 1
    return -1 if (low[0] + low[1]) % 2 else 1


def kasteleyn_matrix(region: Region) -> KasteleynMatrix:
    """Signed white/black biadjacency with the monomial sign rule
    x: +1, y: (-1)^x, z: (-1)^(x+y) evaluated at the lesser endpoint."""
    if region.d not in (2, 3):
        raise InvalidRegion("Kasteleyn matrix supports d=2 and d=3")
    if not region.balanced():
        raise UnbalancedRegion(
            f"{region.white_count} white vs {region.black_count} black cells"
        )
    cells, table, index = region.cells, region.neighbor_table, region.index
    whites = tuple(c for c in cells if color_sign(c) == WHITE)
    blacks = tuple(c for c in cells if color_sign(c) == BLACK)
    column = {index[c]: k for k, c in enumerate(blacks)}
    rows = []
    for i in map(index.__getitem__, whites):
        row = [0] * len(blacks)
        for code, j in enumerate(table[i]):
            if j >= 0:  # the lesser endpoint sorts first; code // 2 is the axis
                row[column[j]] = _edge_sign(cells[min(i, j)], code // 2)
        rows.append(tuple(row))
    return KasteleynMatrix(whites, blacks, tuple(rows))


def _det_bareiss(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def pfaffian_alternating_sum(region: Region) -> int:
    """Signed determinant of the Kasteleyn biadjacency.

    Its absolute value equals |sum over tilings of (-1)^twist|; the global
    sign of the Pfaffian is left unresolved.
    """
    k = kasteleyn_matrix(region)
    return _det_bareiss([list(row) for row in k.entries])
