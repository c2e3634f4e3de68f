"""Exhaustive enumeration and censuses of the move graph.

Enumeration runs core.matchings, the search that fills the counting
module's floors too: it backtracks on the first uncovered cell, trying
+axis partners in axis order, so runs are deterministic and restartable.
In-memory censuses key tilings by their partner tuples and walk the
moves of the region's window tables; canonical encodings name component
representatives, and key the SQLite visited set that the extended path
for billion-tiling regions spills to disk.

Every census, path and connectivity question is a breadth-first walk.
Two graph routines serve them: components, over any symmetric state
graph (flip censuses, the component/trit graph, slab flips, the 2D
sweep), and search_path, one tree path (the twist path oracle and the
ideal containment certificates).  Only the extended census keeps its own
queue, over a disk-backed visited set.  The 2D sweep's polyominoes
search nothing for holes: an edge-connected shape has none exactly when
its Euler characteristic V - E + F is 1.  The twist census
enumerates nothing: it reads the law of crossing sums that
counting.twist_polynomial counts by the profile DP, and turns each sum
into a twist.
"""
from __future__ import annotations

import json
from collections import Counter, deque
from typing import Iterator, NamedTuple

from .core import Region, Tiling, decode, encode, make_region, matchings, region_to_record
from .counting import count_region, twist_polynomial
from .errors import CapExceeded, DimersError, InvalidRegion, NotReachable
from .moves import flip_neighbors, list_flips, trit_neighbors

DEFAULT_CAP = 10_000_000


def enumerate_tilings(region: Region, cap: int | None = DEFAULT_CAP) -> Iterator[Tiling]:
    """Yield every tiling exactly once, in core.matchings' order.

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


def _flip_census(region: Region, cap: int | None):
    """Every tiling, a partner-tuple index into them, and the flip
    components as (size, smallest encoding, member ids), largest first."""
    tilings = list(enumerate_tilings(region, cap))
    index = {t.partner: i for i, t in enumerate(tilings)}
    found = sorted(
        (
            (len(ids), min(encode(tilings[i]) for i in ids), ids)
            for ids in components(index, lambda p: flip_neighbors(region, p))
        ),
        key=lambda triple: (-triple[0], triple[1]),
    )
    return tilings, index, found


def flip_components(region: Region, cap: int | None = DEFAULT_CAP) -> ComponentCensus:
    """Component census over the flip edges of the full tiling set."""
    _, _, found = _flip_census(region, cap)
    return ComponentCensus(
        region=region, components=[(size, rep) for size, rep, _ in found]
    )


def flip_free_tilings(region: Region, cap: int | None = DEFAULT_CAP) -> list[Tiling]:
    """Exactly the tilings admitting no flip."""
    return [t for t in enumerate_tilings(region, cap) if not list_flips(t)]


def flip_connected(region: Region, cap: int | None = DEFAULT_CAP) -> bool:
    """Whether all tilings form a single flip component (vacuously true
    for regions with at most one tiling)."""
    partners = [t.partner for t in enumerate_tilings(region, cap)]
    return len(components(partners, lambda p: flip_neighbors(region, p))) <= 1


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


def component_trit_graph(region: Region, cap: int | None = DEFAULT_CAP) -> ComponentTritGraph:
    from .twist import twist as _twist_of

    tilings, index, found = _flip_census(region, cap)
    comp_of = [0] * len(tilings)
    for comp_id, (_, _, ids) in enumerate(found):
        for i in ids:
            comp_of[i] = comp_id
    edges: set[tuple[int, int]] = set()
    for i, t in enumerate(tilings):
        for after, _, _ in trit_neighbors(region, t.partner):
            a, b = comp_of[i], comp_of[index[after]]
            if a != b:
                edges.add((min(a, b), max(a, b)))
    twists = [_twist_of(tilings[ids[0]]) for _, _, ids in found] if region.d == 3 else None
    census = ComponentCensus(
        region=region,
        components=[(size, rep) for size, rep, _ in found],
    )
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


class DiskBackedSet:
    """Insert-once byte-string set backed by SQLite.

    add() returns True exactly once per key, also after the file is
    reopened.  The keys alone cannot resume a run that was cut off; a
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

    def add(self, key: bytes) -> bool:
        cur = self._sql("INSERT OR IGNORE INTO seen (key) VALUES (?)", key)
        self._pending += 1
        if self._pending >= 10_000:
            self._call(self._conn.commit)
            self._pending = 0
        return cur.rowcount == 1

    def __contains__(self, key: bytes) -> bool:
        return self._sql("SELECT 1 FROM seen WHERE key = ?", key).fetchone() is not None

    def __len__(self) -> int:
        return self._sql("SELECT COUNT(*) FROM seen").fetchone()[0]

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

    Tilings are enumerated in deterministic order; each unvisited one
    seeds a breadth-first sweep of its whole flip component.  Intended for
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
    found: list[tuple[int, bytes]] = []
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
        for t in enumerate_tilings(region, cap=None):
            key = encode(t)
            if not visited.add(key):
                continue
            size = 1
            smallest = key
            queue = deque([t.partner])
            while queue:
                for neighbor in flip_neighbors(region, queue.popleft()):
                    nkey = encode(Tiling(region, neighbor))
                    if visited.add(nkey):
                        size += 1
                        if nkey < smallest:
                            smallest = nkey
                        queue.append(neighbor)
            found.append((size, smallest))
        found.sort(key=lambda pair: (-pair[0], pair[1]))
        visited.store_result(
            name, json.dumps([[size, rep.hex()] for size, rep in found])
        )
    finally:
        visited.close()
    return ComponentCensus(region=region, components=found)
