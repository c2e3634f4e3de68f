"""Flip-ideal and tiling-ideal generators, exported for external CAS work.

One variable per dual-graph edge, indexed lexicographically by (lesser
cell, axis).  Flip generators are the quadratic binomials of the grid's
unit squares; tiling binomials subtract the edge monomials of two
tilings.  Flip connectivity of enumerated regions yields an explicit
telescoping certificate expressing a tiling binomial over the flip
generators.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .core import Region, Tiling, open_text, region_to_record
from .errors import DecodeError, IdenticalTilings, RegionMismatch

Edge = tuple[tuple[int, ...], int]  # (lesser cell, axis)


def edges(region: Region) -> list[Edge]:
    """All dual-graph edges in lexicographic order, which is the order of
    the region's domino table."""
    return list(region.pair_dominoes.values())


def edge_index(region: Region) -> dict[Edge, int]:
    return {e: k for k, e in enumerate(edges(region))}


class _Monomials(NamedTuple):
    pos: tuple[int, ...]
    neg: tuple[int, ...]


class Binomial(_Monomials):
    """pos - neg, each a sorted tuple of edge ids (a monomial)."""

    __slots__ = ()

    def __new__(cls, pos: tuple[int, ...], neg: tuple[int, ...]):
        if pos == neg:
            raise IdenticalTilings("binomial monomials must differ")
        return super().__new__(cls, pos, neg)


def flip_ideal_generators(region: Region) -> list[Binomial]:
    """One quadratic binomial per 4-cycle of the dual graph.

    The cycle at `corner` in the (a, b) plane pairs its two a-parallel
    edges against its two b-parallel edges; orientation is fixed by
    putting the a-pair in the positive monomial.
    """
    index = edge_index(region)
    cells = region.cells
    out = []
    for (_, (a, b)), (i00, i10, i01, _) in region.flip_windows.items():
        corner, ea, eb = cells[i00], cells[i10], cells[i01]
        pos = tuple(sorted((index[(corner, a)], index[(eb, a)])))
        neg = tuple(sorted((index[(corner, b)], index[(ea, b)])))
        out.append(Binomial(pos, neg))
    return out


def _tiling_monomial(tiling: Tiling, index: dict[Edge, int]) -> tuple[int, ...]:
    return tuple(sorted(index[(d.low, d.axis)] for d in tiling.dominoes()))


def tiling_binomial(t0: Tiling, t1: Tiling) -> Binomial:
    """x^{t0} - x^{t1}."""
    if t0.region != t1.region:
        raise RegionMismatch("tiling binomial needs a common region")
    index = edge_index(t0.region)
    pos = _tiling_monomial(t0, index)
    neg = _tiling_monomial(t1, index)
    if pos == neg:
        raise IdenticalTilings("the two tilings are identical")
    return Binomial(pos, neg)


def containment_certificate(t0: Tiling, t1: Tiling) -> list[tuple[tuple[int, ...], Binomial]]:
    """Telescoping certificate that x^{t0} - x^{t1} lies in the flip ideal.

    Walks a flip path from t0 to t1; each step contributes (stabilized
    monomial, flip generator) with the generator oriented so the signed
    sum of monomial*generator equals the tiling binomial exactly.
    """
    from .explore import search_path
    from .moves import flip_neighbors

    if t0.region != t1.region:
        raise RegionMismatch("certificate needs a common region")
    region = t0.region
    index = edge_index(region)
    steps = search_path(
        t0.partner,
        t1.partner,
        lambda partner: ((nxt, None) for nxt in flip_neighbors(region, partner)),
    )
    if steps is None:
        raise DecodeError("tilings are not flip connected; no certificate")
    path = [t0] + [Tiling(region, partner) for partner, _ in steps]
    terms = []
    for first, second in zip(path, path[1:]):
        m0 = _tiling_monomial(first, index)
        m1 = _tiling_monomial(second, index)
        common = sorted(set(m0) & set(m1))
        gen_pos = tuple(sorted(set(m0) - set(m1)))
        gen_neg = tuple(sorted(set(m1) - set(m0)))
        terms.append((tuple(common), Binomial(gen_pos, gen_neg)))
    return terms


# ---------------------------------------------------------------------------
# text export


def _monomial_str(ids: tuple[int, ...]) -> str:
    return "*".join(f"e{k}" for k in ids)


def binomial_str(binomial: Binomial) -> str:
    return f"+{_monomial_str(binomial.pos)} -{_monomial_str(binomial.neg)}"


def parse_binomial(line: str) -> Binomial:
    try:
        plus, minus = line.split()
        if not plus.startswith("+") or not minus.startswith("-"):
            raise ValueError(line)
        pos = tuple(int(v[1:]) for v in plus[1:].split("*"))
        neg = tuple(int(v[1:]) for v in minus[1:].split("*"))
    except ValueError as exc:
        raise DecodeError(f"bad binomial line {line!r}") from exc
    return Binomial(pos, neg)


def export_ideals(
    region: Region,
    out,
    *,
    with_tiling_ideal: bool = False,
    cap: int | None = 100_000,
) -> None:
    """Write variable declarations and generators as plain text.

    Tiling binomials (optional) cover all unordered pairs of enumerated
    tilings, so the file is valid CAS input for the containment question.
    """
    from .explore import enumerate_tilings

    edge_list = edges(region)
    flips = flip_ideal_generators(region)
    texts = []
    if with_tiling_ideal:
        # enumerated before the file opens, so a cap leaves no file behind;
        # distinct tilings have distinct monomials, so every pair is a binomial
        index = edge_index(region)
        texts = [_monomial_str(_tiling_monomial(t, index)) for t in enumerate_tilings(region, cap)]
    kind = region_to_record(region)["kind"]
    shape = "dims=" + "x".join(map(str, region.dims)) if region.dims else f"cells={region.n_cells}"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# region kind={kind} d={region.d} {shape}\n# edges {len(edge_list)}\n")
        for k, (cell, axis) in enumerate(edge_list):
            fh.write(f"var e{k} = cell ({','.join(map(str, cell))}) axis {axis}\n")
        fh.write(f"# flip generators {len(flips)}\n")
        for g in flips:
            fh.write(binomial_str(g) + "\n")
        if with_tiling_ideal:
            fh.write(f"# tiling binomials {len(texts) * (len(texts) - 1) // 2}\n")
            for pos, neg in combinations(texts, 2):
                fh.write(f"+{pos} -{neg}\n")


def parse_ideals(path) -> dict:
    """Inverse of export_ideals; returns declarations and generator lists."""
    result: dict = {"variables": [], "flip": [], "tiling": []}
    section = None
    with open_text(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("# flip generators"):
                section = "flip"
            elif line.startswith("# tiling binomials"):
                section = "tiling"
            elif line.startswith("#"):
                continue
            elif line.startswith("var "):
                result["variables"].append(line)
            elif section is not None:
                result[section].append(parse_binomial(line))
            else:
                raise DecodeError(f"unexpected line {line!r}")
    return result
