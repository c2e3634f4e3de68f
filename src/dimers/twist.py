"""The twist invariant, three independent ways.

* pretwist: a pairwise shadow-crossing sum over the dominoes.  For each
  axis k, two dominoes running along the other two axes whose shadows on
  the plane perpendicular to k cross in one unit square contribute the
  sign of the crossing (the Levi-Civita sign of the two domino axes and
  k times each domino's orientation, +1 when its white cell is the lower
  one) times the sign of their separation along k.  One kernel,
  `_crossings`, forms these products over index pairs; pretwist, twist,
  the calibration, trit_sign and the slice weights of
  counting.twist_polynomial all call it, and twist and the census share
  one shift by the reference tiling.  The kernel reads each domino's
  slot, height, orientation and shadow squares from the region's shadow
  table (`Region.shadows`), built once per region, instead of from its
  cells.  A trit's step is the kernel's sum over the tiling after the
  trit minus its sum before.
  The normalization kappa and the global sign are pinned once by
  self-calibration on the 3x3x2 box, never adjusted silently.
* twist_by_path: signed trit count along a flip/trit path from the base
  tiling; telescopes to the formula value and cross-checks it.
* pfaffian_alternating_sum: determinant of the signed white/black
  biadjacency, which equals the census alternating sum up to a global
  sign.

twist is an integer in 3D and a mod-2 residue in dimension 4 and up.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    BLACK,
    Cell,
    Region,
    Tiling,
    WHITE,
    base_vertical_tiling,
    color_sign,
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

# Levi-Civita signs for permutations of (0, 1, 2)
_EPS = {
    (0, 1, 2): 1,
    (1, 2, 0): 1,
    (2, 0, 1): 1,
    (0, 2, 1): -1,
    (2, 1, 0): -1,
    (1, 0, 2): -1,
}


@dataclass(frozen=True)
class Calibration:
    kappa: Fraction
    sign: int
    kasteleyn_rule: str

    def as_dict(self) -> dict:
        return {
            "kappa": str(self.kappa),
            "sign": self.sign,
            "kasteleyn_rule": self.kasteleyn_rule,
        }


def _crossings(region: Region, pairs, k: int) -> int:
    """Sum of crossing signs along axis k over unordered pairs of the
    dominoes on index pairs (i, j), i < j, read from Region.shadows[k].

    Only dominoes sharing a shadow square cross, so they are bucketed by
    square, and each bucket pairs its slot-0 with its slot-1 marks: a pair
    at heights h0 and h1 adds the product of the two colours times the
    sign of h1 - h0.  An unsorted or non-adjacent pair raises KeyError.
    """
    shadow = region.shadows[k]
    buckets: dict[int, tuple[list, list]] = {}
    for pair in pairs:
        entry = shadow[pair]
        if entry is not None:
            slot, mark, squares = entry
            for square in squares:
                bucket = buckets.get(square)
                if bucket is None:
                    bucket = buckets[square] = ([], [])
                bucket[slot].append(mark)
    total = 0
    for firsts, seconds in buckets.values():
        for h0, c0 in firsts:
            for h1, c1 in seconds:
                if h1 > h0:
                    total += c0 * c1
                elif h1 < h0:
                    total -= c0 * c1
    a, b = [x for x in range(3) if x != k]
    return _EPS[(a, b, k)] * total


def _pairs(partner) -> list[tuple[int, int]]:
    return [(i, j) for i, j in enumerate(partner) if i < j]


# ---------------------------------------------------------------------------
# calibration
#
# The pairwise formula is fixed up to a normalization kappa (over ordered
# pairs) and a global sign.  Candidates are tried against three invariants
# on the 3x3x2 box: twist values must be integers, every trit must step the
# twist by exactly one, and the three axis pretwists must agree.  The first
# candidate passing all three is frozen; the global sign is declared +1, so
# a positive trit is by definition one the formula scores +1.
#
# 1/8 is the value the invariants select: on the 3x3x2 box the ordered sum
# is 0 on the large flip component and -8/+8 on the two flip-free tilings,
# and every trit steps it by exactly 8.

_KAPPA_CANDIDATES = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))


@lru_cache(maxsize=1)
def calibration() -> Calibration:
    from .core import make_box
    from .explore import enumerate_tilings
    from .moves import trit_neighbors

    region = make_box((3, 3, 2))
    base = _crossings(region, _pairs(base_vertical_tiling(region).partner), 2)
    # per tiling: its three integer axis sums, and the z sum of each
    # tiling one trit away; every candidate is tested on these integers
    sums = []
    for t in enumerate_tilings(region, cap=None):
        pairs = _pairs(t.partner)
        axis_sums = [_crossings(region, pairs, k) for k in range(3)]
        after = [_crossings(region, _pairs(a), 2) for a, _, _ in trit_neighbors(region, t.partner)]
        sums.append((axis_sums, after))
    for kappa in _KAPPA_CANDIDATES:
        # a twist is 2 kappa = p/q times an unordered-pair sum, as kappa
        # weighs ordered pairs
        p, q = (2 * kappa).as_integer_ratio()
        if all(
            len(set(axis_sums)) == 1
            and (axis_sums[2] - base) * p % q == 0
            and all(abs(z - axis_sums[2]) * p == q for z in after)
            for axis_sums, after in sums
        ):
            return Calibration(kappa=kappa, sign=1, kasteleyn_rule=KASTELEYN_RULE_ID)
    candidates = ", ".join(map(str, _KAPPA_CANDIDATES))
    raise CalibrationError(
        f"no normalization in {{{candidates}}} satisfies the twist invariants"
    )


def pretwist(tiling: Tiling, axis: int) -> Fraction:
    """Calibrated pairwise sum along one axis (3D only)."""
    if tiling.region.d != 3:
        raise InvalidRegion("pretwist is defined for d=3 only")
    if axis not in (0, 1, 2):
        raise InvalidRegion(f"axis must be 0, 1 or 2, got {axis}")
    return _calibrated(_crossings(tiling.region, _pairs(tiling.partner), axis))


def _calibrated(total: int) -> Fraction:
    """A crossing sum (over unordered pairs) scaled to twist units."""
    cal = calibration()
    return cal.kappa * (cal.sign * 2 * total)


@lru_cache(maxsize=256)
def _reference_tiling(region: Region) -> Tiling:
    """Base of the twist: the all-vertical tiling when it exists, else the
    first tiling in enumeration order."""
    try:
        return base_vertical_tiling(region)
    except NoBaseTiling:
        from .explore import enumerate_tilings

        for t in enumerate_tilings(region, cap=None):
            return t
        raise InvalidRegion("region has no tilings, twist is undefined")


@lru_cache(maxsize=4096)
def _weight_twist(region: Region, weight: int) -> int:
    """Integer twist of a tiling of the region whose crossing sum along z
    is `weight`: its calibrated pretwist minus the reference tiling's.
    Memoised, as a file or census of one region meets few weights."""
    reference = _crossings(region, _pairs(_reference_tiling(region).partner), 2)
    value = _calibrated(weight - reference)
    if value.denominator != 1:
        raise CalibrationError(f"non-integral twist {value}")
    return int(value)


def twist(tiling: Tiling) -> int:
    """Integer twist of a 3D tiling relative to the region's base tiling."""
    region = tiling.region
    if region.d != 3:
        raise InvalidRegion("pretwist is defined for d=3 only")
    return _weight_twist(region, _crossings(region, _pairs(tiling.partner), 2))


def trit_sign(region: Region, partner, removed_pairs, added_pairs) -> int:
    """Twist step of a trit that replaces the dominoes on removed_pairs
    (index pairs of the tiling `partner`) by those on added_pairs.

    In 3D it is the kernel's sum over the tiling after the trit minus its
    sum before, calibrated, and must be +1 or -1.  In dimension 4 and up
    the twist lives in Z/2, every trit flips it, and the step is reported
    as +1.
    """
    if region.d >= 4:
        return 1
    before = _pairs(partner)
    after = set(before).difference(removed_pairs).union(added_pairs)
    value = _calibrated(_crossings(region, after, 2) - _crossings(region, before, 2))
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


@dataclass(frozen=True)
class KasteleynMatrix:
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
