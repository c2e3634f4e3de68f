"""Markov chain sampling of tilings by window proposals.

Each proposal picks a uniformly random window (2x2x1, plus 2x2x2 when
trits are enabled) and applies the unique local move there if one exists,
staying put otherwise.  The window set does not depend on the state and
every local move is an involution, so the kernel is symmetric and the
stationary distribution is uniform on the reachable component of the
start.  A flip window is tested inline on its four cells; a trit window
reads the partners of its four white cells with one `itemgetter` call and
looks them up in the window's moves map (`moves.trit_windows`).  The RNG
is mt19937 (random.Random), which streams identically across platforms
for a fixed seed.  The chain only moves and counts the trits it accepts;
the twist histogram reads each sample's twist from the pairwise formula,
`twist.twist`.
"""
from __future__ import annotations

import random
from typing import NamedTuple

from .core import Region, Tiling, ensure_valid
from .errors import InvalidRegion, InvalidTiling
from .moves import flip_windows, trit_windows

RNG_FAMILY = "mt19937"

ERGODICITY_NOTE = (
    "uniform on the flip(+trit) component of the start; whether these moves "
    "connect all box tilings is open"
)


class _ChainFields(NamedTuple):
    moves: str = "flips"  # "flips" or "flips+trits"
    steps: int = 0
    seed: int = 0
    burn_in: int | None = None  # None: 100 x the cell count


class ChainConfig(_ChainFields):
    """A chain's move set, step count, seed and burn-in, checked when
    built.  _replace would skip the checks, so build a changed copy anew."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.moves not in ("flips", "flips+trits"):
            raise InvalidRegion(f"unknown move set {self.moves!r}")
        if self.steps < 0:
            raise InvalidRegion(f"steps must be >= 0, got {self.steps}")
        if self.burn_in is not None and self.burn_in < 0:
            raise InvalidRegion(f"burn-in must be >= 0, got {self.burn_in}")
        return self


class _Chain:
    """Mutable chain state.

    `windows` lists the flip windows, four cell indices each, then the
    trit windows, (held, moves) each; an index below `n_flips` is a flip.
    Proposals are made only in `advance`, and `trits` counts the trits
    accepted so far.
    """

    def __init__(self, region: Region, start: Tiling, config: ChainConfig):
        ensure_valid(start)
        if start.region != region:
            raise InvalidTiling("start tiling is not a tiling of the region")
        self.region = region
        self.partner = list(start.partner)
        self.rng = random.Random(config.seed)
        self.windows: list = list(flip_windows(region).values())
        self.n_flips = len(self.windows)
        if config.moves == "flips+trits":
            self.windows += trit_windows(region).values()
        if not self.windows:
            raise InvalidRegion("region admits no move windows")
        self.trits = 0

    def advance(self, steps: int) -> None:
        """Make `steps` window proposals.

        A window is drawn by the rejection loop of `Random.randrange(n)`
        (draw `n.bit_length()` bits until the value is below n), so a seed
        gives the same chain as `randrange` would.
        """
        partner = self.partner
        windows = self.windows
        n_flips = self.n_flips
        n = len(windows)
        bits = n.bit_length()
        getrandbits = self.rng.getrandbits
        trits = 0
        for _ in range(steps):
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            if r < n_flips:  # moves._parallel_side and _flipped, inlined
                i00, i10, i01, i11 = windows[r]
                p = partner[i00]
                if p == i10:
                    if partner[i01] == i11:
                        partner[i00], partner[i01] = i01, i00
                        partner[i10], partner[i11] = i11, i10
                elif p == i01:
                    if partner[i10] == i11:
                        partner[i00], partner[i10] = i10, i00
                        partner[i01], partner[i11] = i11, i01
                continue
            held, moves = windows[r]
            found = moves.get(held(partner))
            if found is None:
                continue
            trits += 1
            # the added pairs cover exactly the same six cells
            for i, j in found[1]:
                partner[i], partner[j] = j, i
        self.trits += trits

    def tiling(self) -> Tiling:
        return Tiling(self.region, tuple(self.partner))


def mcmc_run(region: Region, start: Tiling, config: ChainConfig) -> Tiling:
    """Final state after config.steps window proposals.  Burn-in sizes a
    histogram's chains only, so config.burn_in must be unset or 0."""
    if config.burn_in:
        raise InvalidRegion(
            f"a final state is sized by steps; burn-in must be 0, got {config.burn_in}"
        )
    chain = _Chain(region, start, config)
    chain.advance(config.steps)
    return chain.tiling()


class TwistHistogram:
    """Samples per twist value, and the run's settings in meta."""

    def __init__(self, counts: dict[int, int], meta: dict | None = None):
        self.counts = counts
        self.meta = {} if meta is None else meta

    @property
    def n_samples(self) -> int:
        return sum(self.counts.values())

    def _moment(self, power: int, center: float) -> float:
        n = self.n_samples
        if n == 0:
            raise InvalidRegion("an empty twist histogram has no moments")
        return sum(c * (v - center) ** power for v, c in self.counts.items()) / n

    @property
    def mean(self) -> float:
        return self._moment(1, 0.0)

    @property
    def variance(self) -> float:
        return self._moment(2, self.mean)

    @property
    def skewness(self) -> float:
        var = self.variance
        if var == 0:
            return 0.0
        return self._moment(3, self.mean) / var**1.5

    @property
    def excess_kurtosis(self) -> float:
        var = self.variance
        if var == 0:
            return 0.0
        return self._moment(4, self.mean) / var**2 - 3.0

    @property
    def moments(self) -> tuple[float, float, float, float]:
        return (self.mean, self.variance, self.skewness, self.excess_kurtosis)


def twist_distribution(
    region: Region,
    config: ChainConfig,
    samples: int,
    *,
    chains: int = 1,
) -> TwistHistogram:
    """Histogram of the twist over thinned chain samples (3D only).

    Every chain starts from the all-vertical tiling.  Burn-in defaults to
    100x the cell count, and thinning is the cell count; `config.steps`
    must be 0, as the sample count sets the chain's length.  Flips keep
    the twist, so it is read from the tiling after burn-in and again only
    after a thinning interval that accepted a trit.  Chains are
    independent with derived seeds and their counts merge associatively,
    so the result does not depend on scheduling.
    """
    from .core import base_vertical_tiling
    from .twist import twist as _twist_of

    if region.d != 3:
        raise InvalidRegion("twist histograms are defined for d=3")
    if config.steps != 0:
        raise InvalidRegion(f"a histogram is sized by samples; steps must be 0, got {config.steps}")
    if samples < 1 or chains < 1:
        raise InvalidRegion(f"need samples >= 1 and chains >= 1, got {samples} and {chains}")
    start = base_vertical_tiling(region)
    thin = region.n_cells
    burn_in = 100 * region.n_cells if config.burn_in is None else config.burn_in
    counts: dict[int, int] = {}
    per_chain = [samples // chains] * chains
    for k in range(samples % chains):
        per_chain[k] += 1
    for chain_id, chain_samples in enumerate(per_chain):
        if chain_samples == 0:
            continue
        seeded = ChainConfig(config.moves, config.steps, config.seed + chain_id, config.burn_in)
        chain = _Chain(region, start, seeded)
        chain.advance(burn_in)
        value = _twist_of(chain.tiling())
        for _ in range(chain_samples):
            trits = chain.trits
            chain.advance(thin)
            if chain.trits != trits:
                value = _twist_of(chain.tiling())
            counts[value] = counts.get(value, 0) + 1
    meta = {
        "moves": config.moves,
        "seed": config.seed,
        "chains": chains,
        "burn_in": burn_in,
        "thinning": thin,
        "rng": RNG_FAMILY,
        "ergodicity": ERGODICITY_NOTE,
    }
    return TwistHistogram(counts=dict(sorted(counts.items())), meta=meta)


def histogram_csv(hist: TwistHistogram, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("twist,count\n")
        for value, count in sorted(hist.counts.items()):
            fh.write(f"{value},{count}\n")


def histogram_svg(hist: TwistHistogram) -> str:
    """Static SVG bar plot of the histogram."""
    counts = sorted(hist.counts.items())
    if not counts:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>'
    bar_w, gap, height, margin = 28, 6, 160, 24
    peak = max(c for _, c in counts)
    width = margin * 2 + len(counts) * (bar_w + gap)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + 2 * margin}" font-family="monospace" font-size="10">'
    ]
    for k, (value, count) in enumerate(counts):
        h = max(1, round(height * count / peak))
        x = margin + k * (bar_w + gap)
        y = margin + height - h
        parts.append(
            f'<rect x="{x}" y="{y}" width="{bar_w}" height="{h}" fill="#4477aa"/>'
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{margin + height + 12}" '
            f'text-anchor="middle">{value}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{y - 3}" text-anchor="middle">{count}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
