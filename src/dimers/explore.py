"""Exhaustive enumeration and censuses of the move graph.

Enumeration runs regions.matchings, the search that also fills count's
block tables, the plug automaton's floors and the trit windows'
hexagons: it backtracks on the first uncovered cell, trying +axis
partners in axis order, so runs are deterministic and restartable.

Every flip census is one breadth-first walk (_flip_walk) from the
enumerated tilings: flip_components, flip_connected (and the 2D sweep),
the component/trit graph and the extended census.  A tiling's key is
its canonical encoding; the walk encodes only the seeds, since a flip
changes the key, read as an integer, by a fixed step per window and
side (core.flip_steps), so each neighbour's key is an addition and its
partner tuple is built only once the key is new.  The smallest key,
compared as bytes, names a component's representative.  The visited set
has two methods, known and add_new (a batch of keys in, the new ones
out): an in-memory set, or the SQLite set that the extended census for
billion-tiling regions spills to disk.  One batch size serves the
membership queries, the seeds and the walk's neighbours.

Two more graph routines serve the rest: components, over any symmetric
state graph (slab flips, the component/trit graph's connectivity), and
search_path, one tree path (the twist path oracle and the ideal
containment certificates).  The 2D sweep's polyominoes search nothing
for holes: an edge-connected shape has none exactly when its Euler
characteristic V - E + F is 1.  The twist census enumerates nothing: it
reads the law of crossing sums that counting.twist_polynomial counts by
the profile DP, and turns each sum into a twist.
"""
from __future__ import annotations

import json
from collections import Counter, deque
from itertools import chain, islice
from typing import Iterator, NamedTuple

from .core import Region, Tiling, decode, encode, flip_steps, make_region, matchings, region_to_record
from .counting import count_region, twist_polynomial
from .errors import CapExceeded, DimersError, InvalidRegion, NotReachable
from .moves import _flipped, _parallel_side, flip_windows, list_flips, trit_neighbors

DEFAULT_CAP = 10_000_000


def enumerate_tilings(region: Region, cap: int | None = DEFAULT_CAP) -> Iterator[Tiling]:
    """Yield every tiling exactly once, in regions.matchings' order.

    The cap is checked against the exact count up front; pass cap=None for
    extended runs.
    """
    if cap is not None:
        total = count_region(region)
        if total > cap:
            raise CapExceeded(f"{total} tilings exceed the cap of {cap}")
    if region.n_cells % 2:
        return
    partner = [-1] * region.n_cells
    for _ in matchings(region.forward, partner):
        yield Tiling(region, tuple(partner))


def components(states, neighbors) -> list[list[int]]:
    """Connected components of the graph on `states` (hashable) whose
    edges join each state to every state in neighbors(state); those must
    all be in `states`, and the relation must be symmetric, since each
    component is one breadth-first walk from its first member.  Each
    component lists its members' indices in increasing order, and
    components come in order of their first member.
    """
    index = {state: i for i, state in enumerate(states)}
    order = list(index)
    seen = [False] * len(order)
    found = []
    for i in range(len(order)):
        if seen[i]:
            continue
        seen[i] = True
        # the queue is ids itself: the loop reaches what it appends
        ids = [i]
        for k in ids:
            for other in neighbors(order[k]):
                j = index[other]
                if not seen[j]:
                    seen[j] = True
                    ids.append(j)
        found.append(sorted(ids))
    return found


def search_path(start, target, neighbors, cap: int | None = None):
    """Breadth-first tree path from start to target.

    neighbors(state) yields (next state, edge label) pairs.  Returns the
    steps after start as (state, label) pairs, ending at target; [] when
    start is the target, None when target is unreachable.  Raises
    NotReachable once more than `cap` states are visited.
    """
    if start == target:
        return []
    parents = {start: None}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for nxt, label in neighbors(current):
            if nxt in parents:
                continue
            parents[nxt] = (current, label)
            if nxt == target:
                steps = []
                while nxt != start:
                    prev, label = parents[nxt]
                    steps.append((nxt, label))
                    nxt = prev
                return steps[::-1]
            if cap is not None and len(parents) > cap:
                raise NotReachable(f"no path found within {cap} visited tilings")
            queue.append(nxt)
    return None


class ComponentCensus(NamedTuple):
    """Flip components: per-component size and a canonical representative
    (the smallest encoding), plus the size multiset."""

    region: Region
    components: list[tuple[int, bytes]]

    @property
    def multiplicity(self) -> dict[int, int]:
        return dict(Counter(size for size, _ in self.components))

    @property
    def sizes(self) -> list[int]:
        return sorted((size for size, _ in self.components), reverse=True)

    @property
    def total(self) -> int:
        return sum(size for size, _ in self.components)

    def representative(self, component_id: int) -> Tiling:
        return decode(self.components[component_id][1], self.region)


# keys per membership query of the disk set (padded with NULL), seeds per
# query, and queued tilings whose flips the walk looks up together
_BATCH = 64


class _KeySet(set):
    """An in-memory visited set with DiskBackedSet's known and add_new."""

    known = set.intersection

    def add_new(self, keys: list[bytes]) -> list[bytes]:
        new = [key for key in keys if key not in self]
        self.update(new)
        return new


def _flip_walk(region: Region, visited, seeds) -> Iterator[tuple[int, bytes]]:
    """(size, smallest encoding) of the flip component of each seed whose
    encoding `visited` does not hold yet, found by a breadth-first walk
    that adds the component's encodings to it.

    Seeds are taken _BATCH at a time with one membership query per chunk.
    Each tiling is queued with its key as an integer; a neighbour's key is
    that plus core.flip_steps' step, and its partner tuple is built only
    once add_new finds the key new.  The walk pops up to _BATCH tilings at
    a time and looks their neighbours up in one add_new call."""
    nbytes = (3 * region.n_cells + 7) // 8
    moves = list(zip(flip_windows(region).values(), flip_steps(region)))
    seeds = iter(seeds)
    while chunk := list(islice(seeds, _BATCH)):
        keys = [encode(t) for t in chunk]
        known = visited.known(keys)
        for seed, key in zip(chunk, keys):
            # an earlier seed's walk may have reached this one
            if key in known or not visited.add_new([key]):
                continue
            size, smallest = 1, key
            queue = deque([(seed.partner, int.from_bytes(key, "little"))])
            while queue:
                reached = {}
                for _ in range(min(_BATCH, len(queue))):
                    partner, value = queue.popleft()
                    for window, steps in moves:
                        side = _parallel_side(partner, window)
                        if side is not None:
                            reached.setdefault(value + steps[side], (partner, window, side))
                blobs = {value.to_bytes(nbytes, "little"): value for value in reached}
                new = visited.add_new(list(blobs))
                for blob in new:
                    value = blobs[blob]
                    partner, window, side = reached[value]
                    queue.append((_flipped(partner, window, side), value))
                if new:
                    size += len(new)
                    smallest = min(smallest, min(new))
            yield size, smallest


def flip_components(region: Region, cap: int | None = DEFAULT_CAP) -> ComponentCensus:
    """Component census over the flip edges of the full tiling set,
    largest components first, ties by representative."""
    found = _flip_walk(region, _KeySet(), enumerate_tilings(region, cap))
    return ComponentCensus(region, sorted(found, key=lambda pair: (-pair[0], pair[1])))


def flip_free_tilings(region: Region, cap: int | None = DEFAULT_CAP) -> list[Tiling]:
    """Exactly the tilings admitting no flip."""
    return [t for t in enumerate_tilings(region, cap) if not list_flips(t)]


def flip_connected(region: Region, cap: int | None = DEFAULT_CAP) -> bool:
    """Whether all tilings form a single flip component (vacuously true
    for regions with at most one tiling)."""
    walk = _flip_walk(region, _KeySet(), enumerate_tilings(region, cap))
    return len(list(islice(walk, 2))) <= 1


class ComponentTritGraph(NamedTuple):
    """Flip components as vertices, trit connections as edges, one twist
    level per vertex in 3D (None in other dimensions, where the twist is
    not an integer)."""

    census: ComponentCensus
    twists: list[int] | None
    edges: set[tuple[int, int]]

    def is_connected(self) -> bool:
        adjacency = {i: [] for i in range(len(self.census.components))}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return len(components(adjacency, adjacency.__getitem__)) <= 1


def _component_keys(tiling: Tiling) -> set[bytes]:
    """The encodings of every tiling in tiling's flip component."""
    members = _KeySet()
    deque(_flip_walk(tiling.region, members, [tiling]), maxlen=0)
    return members


def component_trit_graph(region: Region, cap: int | None = DEFAULT_CAP) -> ComponentTritGraph:
    """The census's components, each re-walked from its representative to
    name its members, joined by the trits between them."""
    from .twist import twist as _twist_of

    census = flip_components(region, cap)
    reps = [census.representative(i) for i in range(len(census.components))]
    comp_of = {key: i for i, rep in enumerate(reps) for key in _component_keys(rep)}
    edges: set[tuple[int, int]] = set()
    for key, a in comp_of.items():
        for after, _, _ in trit_neighbors(region, decode(key, region).partner):
            b = comp_of[encode(Tiling(region, after))]
            if a != b:
                edges.add((min(a, b), max(a, b)))
    twists = [_twist_of(rep) for rep in reps] if region.d == 3 else None
    return ComponentTritGraph(census=census, twists=twists, edges=edges)


def twist_census(region: Region) -> dict[int, int]:
    """Exact tiling count per twist value, counted by the profile DP of
    counting.twist_polynomial without enumerating a tiling; that sweep's
    width guard applies.  A region with no tiling has no twist to be
    undefined, in any dimension."""
    from .twist import _weight_twist

    if region.d != 3 and not count_region(region):
        return {}
    weights = twist_polynomial(region)
    return dict(sorted((_weight_twist(region, w), count) for w, count in weights.items()))


def tw_max(region: Region) -> int:
    """Maximum twist over all tilings."""
    return max(twist_census(region))


def census_csv(census: ComponentCensus, path) -> None:
    """component_id,size,twist,representative_hex rows (3D only).  Flips
    keep the twist, so each component's is its representative's."""
    import csv

    from .twist import twist

    if census.region.d != 3:
        raise InvalidRegion("component twists are defined for d=3 only")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component_id", "size", "twist", "representative_hex"])
        for comp_id, (size, rep) in enumerate(census.components):
            writer.writerow([comp_id, size, twist(census.representative(comp_id)), rep.hex()])


# ---------------------------------------------------------------------------
# 2D flip connectivity sweep (Thurston's theorem as a property check)


def _fixed_polyominoes(max_cells: int) -> Iterator[tuple]:
    """Redelmeier enumeration of fixed polyominoes up to max_cells.

    Cells live in the half-plane y > 0 or (y == 0 and x >= 0), rooted at
    the origin, which yields each fixed shape exactly once up to
    translation.
    """

    def admissible(c):
        return c[1] > 0 or (c[1] == 0 and c[0] >= 0)

    def rec(cells: list, untried: list, seen: set) -> Iterator[tuple]:
        while untried:
            c = x, y = untried.pop()
            cells.append(c)
            yield tuple(cells)
            if len(cells) < max_cells:
                around = ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                new = [nb for nb in around if admissible(nb) and nb not in seen]
                seen.update(new)
                yield from rec(cells, untried + new, seen)
                seen.difference_update(new)
            cells.pop()

    yield from rec([], [(0, 0)], {(0, 0)})


def _hole_free(shape: list[int], step: int) -> bool:
    """Whether an edge-connected shape has no hole, by the Euler
    characteristic V - E + F of the union of its closed cells, which is 1
    minus the number of holes.  Cell (x, y) is packed as x * step + y,
    with y + 1 < step; each corner and unit edge is named by the cell it
    is the lower left corner, lower edge or left edge of."""
    corners = {c + d for c in shape for d in (0, 1, step, step + 1)}
    along_x = set(shape).union(c + 1 for c in shape)
    along_y = set(shape).union(c + step for c in shape)
    return len(corners) - len(along_x) - len(along_y) + len(shape) == 1


def iter_free_simply_connected_polyominoes(max_cells: int) -> Iterator[tuple]:
    """One representative per free simply connected polyomino class with
    an even number of cells, the only ones a domino tiling can cover.

    A fixed shape is kept only when no dihedral image of it normalises
    below it, so no dedup set is needed; the first smaller image rejects it.
    An image pairs two of the coordinate lists x - min x, max x - x,
    y - min y and max y - y, one per axis, packed as a << shift | b and
    sorted, which orders images as their sorted (a, b) tuples.
    """
    shift = max_cells.bit_length()
    for cells in _fixed_polyominoes(max_cells):
        if len(cells) % 2:
            continue
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        right = [x - x0 for x in xs]
        left = [x1 - x for x in xs]
        up = [y - y0 for y in ys]
        down = [y1 - y for y in ys]
        shape = sorted([a << shift | b for a, b in zip(right, up)])
        if any(
            sorted([a << shift | b for a, b in zip(first, second)]) < shape
            for first, second in (
                (down, right), (left, down), (up, left),
                (left, up), (up, right), (right, down), (down, left),
            )
        ):
            continue
        if _hole_free(shape, 1 << shift):
            yield tuple(sorted(zip(right, up)))


def flip_connected_2d(cells: tuple) -> bool:
    """Flip connectivity of a small 2D cell set, as flip_connected."""
    return flip_connected(make_region(cells, d=2), cap=None)


# ---------------------------------------------------------------------------
# extended-scale machinery: a disk-backed visited set so the census of
# billion-tiling regions is bounded by scratch space, not RAM

_COMMIT_EVERY = 10_000  # inserts between commits of the visited set
_SELECT_IN = "SELECT key FROM seen WHERE key IN (" + ", ".join("?" * _BATCH) + ")"


class DiskBackedSet:
    """Insert-once byte-string set backed by SQLite.

    add_new() is its one write: it adds a batch of keys and returns the
    ones that were new, each key exactly once, also after the file is
    reopened, with one membership query per _BATCH keys (known()) and
    one insert.  The keys alone cannot resume a run that was cut off; a
    second table holds named results, so a finished run can be read back.
    A SQLite error (a file that cannot be opened or is not a database)
    is raised as a DimersError with the file's path and SQLite's message.
    """

    def __init__(self, path):
        import sqlite3

        self._path = path
        self._sqlite_error = sqlite3.Error
        self._conn = self._call(sqlite3.connect, str(path))
        self._sql("PRAGMA journal_mode=OFF")
        self._sql("PRAGMA synchronous=OFF")
        self._sql("CREATE TABLE IF NOT EXISTS seen (key BLOB PRIMARY KEY)")
        self._sql("CREATE TABLE IF NOT EXISTS result (name TEXT PRIMARY KEY, value TEXT)")
        self._pending = 0

    def _call(self, method, *args):
        try:
            return method(*args)
        except self._sqlite_error as exc:
            raise DimersError(f"{self._path}: {exc}") from exc

    def _sql(self, statement: str, *params):
        return self._call(self._conn.execute, statement, params)

    def known(self, keys: list[bytes]) -> set[bytes]:
        """The keys among `keys` that the set holds: one query per
        _BATCH keys, the list padded with NULL to that length so that
        SQLite caches one statement for every call."""
        found = set()
        for start in range(0, len(keys), _BATCH):
            chunk = keys[start : start + _BATCH]
            chunk += [None] * (_BATCH - len(chunk))
            found.update(chain.from_iterable(self._sql(_SELECT_IN, *chunk)))
        return found

    def add_new(self, keys: list[bytes]) -> list[bytes]:
        """Add distinct keys; returns, in input order, the ones that
        were not in the set before.  Commits once every _COMMIT_EVERY
        inserts."""
        known = self.known(keys)
        new = [key for key in keys if key not in known]
        self._call(self._conn.executemany, "INSERT INTO seen (key) VALUES (?)",
                   [(key,) for key in new])
        self._pending += len(new)
        if self._pending >= _COMMIT_EVERY:
            self._call(self._conn.commit)
            self._pending = 0
        return new

    def __bool__(self) -> bool:
        return self._sql("SELECT 1 FROM seen LIMIT 1").fetchone() is not None

    def result(self, name: str) -> str | None:
        row = self._sql("SELECT value FROM result WHERE name = ?", name).fetchone()
        return None if row is None else row[0]

    def store_result(self, name: str, value: str) -> None:
        self._sql("INSERT OR REPLACE INTO result (name, value) VALUES (?, ?)", name, value)
        self._call(self._conn.commit)

    def close(self) -> None:
        self._call(self._conn.commit)
        self._conn.close()


def flip_components_extended(region: Region, scratch_dir) -> ComponentCensus:
    """Streaming flip census with a disk-backed visited set.

    The flip walk of the in-memory census over a visited set in a SQLite
    file, which it queries in batches of _BATCH keys.  Intended for
    opt-in runs where the tiling count exceeds RAM: runtime is hours and
    scratch is of the order of the state space.  The finished census is
    stored in the visited set's file, and a rerun on the same scratch dir
    returns it; a visited set without a finished census of this region is
    refused.
    """
    from pathlib import Path

    path = Path(scratch_dir) / "visited.sqlite"
    name = json.dumps(region_to_record(region), sort_keys=True)
    visited = DiskBackedSet(path)
    try:
        stored = visited.result(name)
        if stored is not None:
            found = [(size, bytes.fromhex(rep)) for size, rep in json.loads(stored)]
            return ComponentCensus(region=region, components=found)
        if visited:
            raise DimersError(
                f"{path} holds the visited set of an unfinished or different "
                "census; remove it or use an empty scratch dir"
            )
        walk = _flip_walk(region, visited, enumerate_tilings(region, cap=None))
        found = sorted(walk, key=lambda pair: (-pair[0], pair[1]))
        visited.store_result(name, json.dumps([[size, rep.hex()] for size, rep in found]))
    finally:
        visited.close()
    return ComponentCensus(region=region, components=found)
