"""Independent oracles the tests check the library against.

Deliberately different algorithms from the package: the permanent of the
white/black biadjacency via Ryser's formula counts matchings without any
profile DP, the naive enumerator matches cells recursively over an
explicit adjacency list with no canonical ordering tricks, and the naive
move neighbours rematch small groups of dominoes of a cell-pair set
instead of scanning precomputed windows; a trit is applied, its sign
unread, by rematching its six cells the same way.  Flip components come
from comparing every pair of tilings (slab flips too, their components
by merging labels along those pairs), and cylinder counts from walking
the plug automaton's transfer matrix floor by floor instead of the
profile DP.  The twist's crossing sum compares every pair of dominoes
instead of bucketing them by shadow square, and the twist census tallies
the twist of every enumerated tiling instead of counting through the
profile DP.  For regions too large to enumerate, the twist law has a
reference that transfers over whole slices perpendicular to x or y,
filling each with core.matchings, the cells of the next slice past the
end of its table, and weighing it by the line walk over its columns,
instead of sweeping cells with z fastest.  The line-walking crossing
sum also has a reference that
buckets index pairs by shadow square and reads each domino's height,
colour and squares from its cells, and the trit step one that recomputes
that sum over the dominoes touching the trit's column before and after.  The sampler's
reference makes one proposal per call, with kind-tagged windows and
`Random.randrange`, instead of drawing raw bits in one loop; it counts
the trits it accepts, as the chain does.  A polyomino's holes are found
by flood-filling its complement in a bounding box, not by its Euler
characteristic, and the polyominoes themselves are grown one cell at a
time and deduplicated by a set of least dihedral images, not swept by
Redelmeier's method.  A refined tiling matches each cell of a refined
domino with the cell one coordinate step along its axis, and the
Kasteleyn matrix finds each white cell's black neighbours by coordinate
steps, instead of reading the region's neighbour table.  Slab tilings are validated by building each slab's four
cells, and inflated by deflating each slab's two surviving cells and
checking their count and adjacency, instead of reading the window and
inflation tables.  The profile DP's plan has a reference that sweeps
every order of the axes, without skipping orders that read a box's
sides in the same sequence, and its sweep one that moves the profile
one cell per pass instead of a block of cells through a table.  A
floor diagram has a reference that looks every cell of the bounding box
up in the region's index, tiling by tiling, instead of reading a layout
built once per region, and a parser that inverts it.
"""
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations, permutations, product

from dimers.core import (
    _GLYPHS,
    REFINE_FACTOR,
    Domino,
    Tiling,
    color_sign,
    make_region,
    matched,
    matchings,
    _tiling_from_codes,
    refine_region,
    tiling_from_dominoes,
    validate,
)
from dimers.counting import WIDTH_GUARD
from dimers.errors import DecodeError, InflationError, InvalidRegion, InvalidTiling, WidthGuardExceeded
from dimers.slab import _PAIR_AXES, enumerate_slab_tilings, four_color, horizontal_slab_tiling
from dimers.twist import KasteleynMatrix, _crossings_through, _edge_sign, pretwist


def _biadjacency(region):
    whites = [c for c in region.cells if color_sign(c) == 1]
    blacks = [c for c in region.cells if color_sign(c) == -1]
    black_index = {c: j for j, c in enumerate(blacks)}
    rows = []
    for w in whites:
        row = [0] * len(blacks)
        for axis in range(region.d):
            for delta in (1, -1):
                nb = w[:axis] + (w[axis] + delta,) + w[axis + 1 :]
                if nb in black_index:
                    row[black_index[nb]] = 1
        rows.append(row)
    return rows


def permanent_count(region) -> int:
    """Number of perfect matchings as a permanent, by Ryser's formula."""
    if region.n_cells == 0:
        return 1
    matrix = _biadjacency(region)
    n = len(matrix)
    if n == 0 or n != len(matrix[0]):
        return 0
    total = 0
    for r in range(1, n + 1):
        for cols in combinations(range(n), r):
            prod = 1
            for row in matrix:
                s = sum(row[c] for c in cols)
                prod *= s
                if prod == 0:
                    break
            total += (-1) ** (n - r) * prod
    return total


def naive_tilings(region) -> list[frozenset]:
    """All perfect matchings as frozensets of cell-pair frozensets."""
    cells = list(region.cells)
    if len(cells) % 2:
        return []
    adjacency = {c: [] for c in cells}
    cell_set = set(cells)
    for c in cells:
        for axis in range(region.d):
            for delta in (1, -1):
                nb = c[:axis] + (c[axis] + delta,) + c[axis + 1 :]
                if nb in cell_set:
                    adjacency[c].append(nb)
    results = []

    def rec(remaining: frozenset, acc):
        if not remaining:
            results.append(frozenset(acc))
            return
        cell = min(remaining)
        for nb in adjacency[cell]:
            if nb in remaining:
                rec(remaining - {cell, nb}, acc | {frozenset((cell, nb))})

    rec(frozenset(cells), frozenset())
    return results


def tiling_to_pairset(tiling) -> frozenset:
    cells = tiling.region.cells
    return frozenset(
        frozenset((cells[i], cells[j]))
        for i, j in enumerate(tiling.partner)
        if i < j
    )


def _adjacent(a, b) -> bool:
    return sum(abs(x - y) for x, y in zip(a, b)) == 1


def _axis(pair) -> int:
    a, b = tuple(pair)
    return next(k for k in range(len(a)) if a[k] != b[k])


def _matchings(cells: frozenset):
    """Every perfect matching of a small cell set by adjacent pairs."""
    if not cells:
        yield frozenset()
        return
    first = min(cells)
    for other in cells:
        if _adjacent(first, other):
            for rest in _matchings(cells - {first, other}):
                yield rest | {frozenset((first, other))}


def _block(cells) -> list:
    """All cells of the bounding box of `cells`."""
    coordinates = list(zip(*cells))
    return list(product(*(range(min(xs), max(xs) + 1) for xs in coordinates)))


def _rematched(pairset: frozenset, group, keep) -> set[frozenset]:
    """Tilings that replace the dominoes of `group` by another matching of
    their cells for which keep(matching) holds."""
    cells = frozenset().union(*group)
    return {
        (pairset - set(group)) | m
        for m in _matchings(cells)
        if m != set(group) and keep(m)
    }


def naive_flip_neighbors(pairset: frozenset) -> set[frozenset]:
    """Tilings one flip away: two dominoes filling a unit square, rotated.
    Two dominoes that fill a square are parallel."""
    out = set()
    axis = {p: _axis(p) for p in pairset}
    for group in combinations(pairset, 2):
        if axis[group[0]] != axis[group[1]]:
            continue
        cells = frozenset().union(*group)
        if len(_block(cells)) == 4:
            out |= _rematched(pairset, group, lambda m: True)
    return out


def naive_trit_neighbors(pairset: frozenset, region) -> set[frozenset]:
    """Tilings one trit away: three pairwise orthogonal dominoes inside a
    2x2x2 block that lies in the region, rematched with one domino per
    axis."""
    out = set()
    cell_set = set(region.cells)
    axis = {p: _axis(p) for p in pairset}
    for group in combinations(pairset, 3):
        if len({axis[p] for p in group}) != 3:
            continue
        block = _block(frozenset().union(*group))
        if len(block) != 8 or not cell_set.issuperset(block):
            continue
        out |= _rematched(pairset, group, lambda m: len({_axis(p) for p in m}) == 3)
    return out


def apply_trit_structural(tiling, move):
    """The tiling after the trit, without the trit's sign (which raises on
    a region where a trit does not step the twist by one): the six cells
    of the move's three dominoes rematched into the only other three
    pairwise orthogonal dominoes, every other domino kept."""
    group = {
        frozenset((low, low[:axis] + (low[axis] + 1,) + low[axis + 1 :]))
        for low, axis in move.removed
    }
    pairset = tiling_to_pairset(tiling)
    assert group <= pairset, "the tiling does not hold the trit's dominoes"
    (after,) = _rematched(pairset, group, lambda m: len({_axis(p) for p in m}) == 3)
    return tiling_from_dominoes(tiling.region, [Domino(min(p), _axis(p)) for p in after])


def flip_components_by_difference(region) -> list[int]:
    """Flip component sizes, largest first.  Two tilings are one flip apart
    exactly when they differ in four cells, i.e. two dominoes each; every
    pair of tilings is compared."""
    tilings = naive_tilings(region)
    unseen = set(range(len(tilings)))
    sizes = []
    while unseen:
        stack = [unseen.pop()]
        size = 0
        while stack:
            i = stack.pop()
            size += 1
            joined = [j for j in unseen if len(tilings[i] - tilings[j]) == 2]
            unseen.difference_update(joined)
            stack.extend(joined)
        sizes.append(size)
    return sorted(sizes, reverse=True)


def flip_component_members(region) -> list[list[frozenset]]:
    """Each flip component's tilings as cell-pair sets: the naive
    tilings, joined by their naive flip neighbours, merged into
    components by components_of_edges."""
    tilings = naive_tilings(region)
    index = {t: i for i, t in enumerate(tilings)}
    edges = [(i, index[u]) for i, t in enumerate(tilings) for u in naive_flip_neighbors(t)]
    return [[tilings[i] for i in group] for group in components_of_edges(len(tilings), edges)]


def dp_plan_by_every_order(region) -> tuple[int, list[list[int]], int]:
    """counting._dp_plan's width, plan and most significant axis, from a
    sweep of every order of the axes; the first narrowest order wins."""
    best = None
    for axes in permutations(reversed(range(region.d))):
        order = sorted(range(region.n_cells), key=lambda i: [region.cells[i][a] for a in axes])
        pos = {ci: p for p, ci in enumerate(order)}
        plan = [sorted(pos[nb] - p for nb in region.forward[ci]) for p, ci in enumerate(order)]
        width = max((offs[-1] for offs in plan if offs), default=0)
        if best is None or width < best[0]:
            best = (width, plan, axes[0])
    return best


def sweep_by_cells(plan, states: dict[int, int]) -> dict[int, int]:
    """counting._sweep one cell per pass: a covered cell shifts out of
    the mask, a free one is filled along each offset whose target is
    free."""
    for offsets in plan:
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, ways in states.items():
            if mask & 1:
                key = mask >> 1
                nxt[key] = get(key, 0) + ways
            else:
                for off in offsets:
                    bit = 1 << off
                    if not mask & bit:
                        key = (mask | bit) >> 1
                        nxt[key] = get(key, 0) + ways
        states = nxt
        if not states:
            break
    return states


def automaton_cylinder_count(disk, height: int) -> int:
    """Tilings of disk x [0, height): closed walks of length `height` from
    the empty plug, as the unit vector times the automaton's transfer
    matrix, `height` times."""
    from dimers.counting import build_automaton

    matrix = build_automaton(disk).matrix
    size = len(matrix)
    vector = [1] + [0] * (size - 1)
    for _ in range(height):
        vector = [sum(v * row[j] for v, row in zip(vector, matrix)) for j in range(size)]
    return vector[0]


def pairwise_crossings(tiling, k: int) -> int:
    """The twist's crossing sum along axis k, from its definition: every
    pair of dominoes, one along each of the two axes other than k, whose
    shadows on the plane perpendicular to k overlap, contributes the
    Levi-Civita sign of (first axis, second axis, k) times the two
    dominoes' orientations (+1 when the white cell is the lower one) times
    the sign of the second's offset from the first along k.  Every such
    pair is compared; nothing is bucketed."""
    cells = tiling.region.cells
    along = {}
    for i, j in enumerate(tiling.partner):
        if i < j:
            low, high = sorted((cells[i], cells[j]))
            if low[k] == high[k]:
                shadow = {low[:k] + low[k + 1 :], high[:k] + high[k + 1 :]}
                along.setdefault(_axis((low, high)), []).append(
                    (shadow, low[k], color_sign(low))
                )
    a, b = [axis for axis in range(3) if axis != k]
    levi_civita = (b - a) * (k - a) * (k - b) // 2
    total = 0
    for shadow0, z0, s0 in along.get(a, []):
        for shadow1, z1, s1 in along.get(b, []):
            if shadow0 & shadow1:
                total += levi_civita * s0 * s1 * ((z1 > z0) - (z1 < z0))
    return total


def crossings_by_cells(region, pairs, k: int) -> int:
    """The crossing sum along axis k over the dominoes on index pairs
    (i, j), i < j, bucketed by shadow square, with every domino's height,
    colour and squares read from its two cells."""
    a, b = [x for x in range(3) if x != k]
    cells = region.cells
    buckets = {}
    for i, j in pairs:
        low, high = cells[i], cells[j]
        if low[k] != high[k]:
            continue
        slot = 0 if low[a] != high[a] else 1
        entry = (low[k], color_sign(low))
        for cell in (low, high):
            buckets.setdefault((cell[a], cell[b]), ([], []))[slot].append(entry)
    total = 0
    for first, second in buckets.values():
        for k0, s0 in first:
            for k1, s1 in second:
                total += s0 * s1 * ((k1 > k0) - (k1 < k0))
    levi_civita = (b - a) * (k - a) * (k - b) // 2
    return levi_civita * total


def trit_step_by_column(region, partner, removed, added):
    """The calibrated twist step of a trit, as a Fraction: the crossing
    sum along z over every domino touching the trit's column (the cells
    above the (x, y) points of its cells), after the trit minus before."""
    from dimers.twist import calibration

    cal = calibration()
    cells = region.cells
    columns = {}
    for c, cell in enumerate(cells):
        columns.setdefault(cell[:-1], []).append(c)
    touching = set()
    for point in {cells[c][:-1] for pair in removed for c in pair}:
        for c in columns[point]:
            j = partner[c]
            touching.add((min(c, j), max(c, j)))
    after = touching.difference(removed) | set(added)
    delta = crossings_by_cells(region, after, 2) - crossings_by_cells(region, touching, 2)
    return cal.sign * 2 * cal.kappa * delta


def twist_census_by_enumeration(region, cap=10_000_000) -> dict[int, int]:
    """Tiling count per twist value: every tiling is enumerated and its
    twist summed pairwise."""
    from dimers.explore import enumerate_tilings
    from dimers.twist import twist

    counts = Counter()
    for t in enumerate_tilings(region, cap):
        counts[twist(t)] += 1
    return dict(sorted(counts.items()))


def _slices(region):
    """Slices perpendicular to x or y, whichever has the smaller largest
    slice (x on a tie): coordinate -> {cell without it: cell index}."""
    best = None
    for axis in (0, 1):
        slices = {}
        for i, cell in enumerate(region.cells):
            slices.setdefault(cell[axis], {})[cell[:axis] + cell[axis + 1 :]] = i
        largest = max(map(len, slices.values()), default=0)
        if best is None or largest < best[0]:
            best = (largest, slices)
    return best[1]


def twist_polynomial_by_slices(region) -> dict[int, int]:
    """counting.twist_polynomial by a transfer over slices instead of the
    profile DP, for regions too large to enumerate.

    Only an x-domino and a y-domino on the same (x, y) column cross, so W
    is a sum over columns.  Sweeping slices perpendicular to x (or y), a
    slice holds whole columns, and its fill, with the plug in from the
    slice before and the plug out to the slice after, fixes every domino
    touching them.  The slice's weight is the kernel over a partner that
    holds those dominoes, -1 elsewhere; the columns of the neighbouring
    slices get dominoes of one axis only from them and add 0.  The count
    DP then carries {W: ways} per plug.
    The plug masks live on the union of the slices' projections, and the
    slice's cell count is guarded like the profile width.
    """
    if region.d != 3:
        raise InvalidRegion("pretwist is defined for d=3 only")
    slices = _slices(region)
    largest = max(map(len, slices.values()), default=0)
    if largest > WIDTH_GUARD:
        raise WidthGuardExceeded(f"slice has {largest} cells, guard is {WIDTH_GUARD}")
    disk = make_region({p for cells in slices.values() for p in cells}, d=2)
    n = disk.n_cells
    everywhere = (1 << n) - 1
    # in-slice dominoes along the disk's first axis, sorted; z-dominoes cross nothing
    crossing = [(p, row[0]) for p, row in enumerate(disk.neighbor_table) if row[0] >= 0]
    positions = {
        s: {disk.index[p]: i for p, i in cells.items()} for s, cells in slices.items()
    }

    # Plug dominoes all run along the sweep, so they cross only in-slice
    # ones, and the slice's weight is the kernel over the plug in and the
    # crossing in-slice dominoes plus the kernel over those and the plug
    # out.  Moving a slice one step along the sweep flips every orientation
    # sign and each crossing is a product of two, so both halves depend only
    # on their plug and in-slice dominoes, and the transitions only on the
    # slice's shape: the cells it lacks and the cells that may pierce.
    halves = {}
    memo = {}

    def half(side: int, mask: int, across: tuple, plug_pairs: dict, here: dict) -> int:
        key = (side, mask, across)
        value = halves.get(key)
        if value is None:
            pairs = [*(plug_pairs[p] for p in _bits(mask)), *((here[p], here[q]) for p, q in across)]
            partner = matched([-1] * region.n_cells, pairs)
            value = halves[key] = _crossings_through(region, partner, here.values())
        return value

    vector = {0: {0: 1}}
    here = {}
    for s in range(min(slices, default=0), max(slices, default=-1) + 1):
        before, here, after = here, positions.get(s, {}), positions.get(s + 1, {})
        entering = {p: (before[p], i) for p, i in here.items() if p in before}
        leaving = {p: (i, after[p]) for p, i in here.items() if p in after}
        absent = everywhere & ~sum(1 << p for p in here)
        open_cells = sum(1 << p for p in leaving)
        # an open cell may be matched to the cell above it, past the end at n + p
        forward = [((n + p,) if open_cells >> p & 1 else ()) + row
                   for p, row in enumerate(disk.forward)]
        nxt = {}
        for plug, weights in vector.items():
            key = (plug, absent, open_cells)
            steps = memo.get(key)
            if steps is None:
                steps = memo[key] = Counter()
                partner = [0 if (plug | absent) >> p & 1 else -1 for p in range(n)] + [-1] * n
                for up in matchings(forward, partner):
                    across = tuple([(p, q) for p, q in crossing if partner[p] == q])
                    w = half(0, plug, across, entering, here) + half(1, up, across, leaving, here)
                    steps[up, w] += 1
            for (up, w), ways in steps.items():
                target = nxt.setdefault(up, {})
                for value, count in weights.items():
                    target[value + w] = target.get(value + w, 0) + count * ways
        vector = nxt
        if not vector:
            return {}
    return dict(sorted(vector.get(0, {}).items()))


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _held(partner, ids) -> tuple[tuple[int, int], ...]:
    """Index pairs of the dominoes inside a cube, scanned cell by cell;
    sorted, as the ids are."""
    held = []
    for i in ids:
        j = partner[i]
        if i < j and j in ids:
            held.append((i, j))
    return tuple(held)


def _trit_cubes(region) -> list[tuple[tuple[int, ...], dict]]:
    """(ids, swaps) of each 2x2x2 cube inside the region, corner by corner
    and then by axes: ids are the cube's cell indices, sorted, and swaps
    takes each matching of six of them with one domino per axis, as
    sorted index pairs, to the other one of the same six cells."""
    index = region.index
    out = []
    for corner in region.cells:
        for axes in combinations(range(region.d), 3):
            cube = []
            for deltas in product((0, 1), repeat=3):
                cell = list(corner)
                for axis, delta in zip(axes, deltas):
                    cell[axis] += delta
                cube.append(tuple(cell))
            if not all(c in index for c in cube):
                continue
            swaps = {}
            for a, b in combinations(cube, 2):
                if sum(x != y for x, y in zip(a, b)) < 3:
                    continue
                first, second = [
                    tuple(sorted(tuple(sorted(index[c] for c in pair)) for pair in m))
                    for m in _matchings(frozenset(cube) - {a, b})
                    if len({_axis(pair) for pair in m}) == 3
                ]
                swaps[first], swaps[second] = second, first
            out.append((tuple(sorted(index[c] for c in cube)), swaps))
    return out


def chain_by_steps(region, start, config, steps: int) -> tuple[list[int], int]:
    """(partner, accepted trits) after `steps` proposals of the
    flips(+trits) chain, one proposal at a time with tagged windows and
    `randrange`.  Each trit cube is walked here and its dominoes found by
    a scan of its cells."""
    import random

    from dimers.moves import flip_windows

    partner = list(start.partner)
    rng = random.Random(config.seed)
    windows = [("flip", w) for w in flip_windows(region).values()]
    if config.moves == "flips+trits":
        windows += [("trit", w) for w in _trit_cubes(region)]
    trits = 0
    for _ in range(steps):
        kind, window = windows[rng.randrange(len(windows))]
        if kind == "flip":
            i00, i10, i01, i11 = window
            if partner[i00] == i10 and partner[i01] == i11:
                partner[i00], partner[i01] = i01, i00
                partner[i10], partner[i11] = i11, i10
            elif partner[i00] == i01 and partner[i10] == i11:
                partner[i00], partner[i10] = i10, i00
                partner[i01], partner[i11] = i11, i01
            continue
        ids, swaps = window
        replacement = swaps.get(_held(partner, ids))
        if replacement is None:
            continue
        trits += 1
        for i, j in replacement:
            partner[i], partner[j] = j, i
    return partner, trits


def simply_connected_by_flood_fill(cells) -> bool:
    """No holes: the complement of the 2D shape is edge-connected within
    its bounding box grown by one cell on every side."""
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    shape = set(cells)
    outside = {(x0, y0)}
    queue = deque(outside)
    while queue:
        x, y = queue.popleft()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            inside_box = x0 <= nb[0] <= x1 and y0 <= nb[1] <= y1
            if inside_box and nb not in shape and nb not in outside:
                outside.add(nb)
                queue.append(nb)
    return len(outside) + len(shape) == (x1 - x0 + 1) * (y1 - y0 + 1)


def free_simply_connected_polyominoes_by_growth(max_cells: int) -> set[tuple]:
    """Every free simply connected polyomino of up to max_cells cells, as
    the least of its eight dihedral images, each moved to the origin and
    sorted.  Each size is grown from all shapes one cell smaller, holey
    ones included; holes are dropped at the end."""

    def least_image(cells):
        images = []
        for sx, sy, swap in product((1, -1), (1, -1), (False, True)):
            points = [(sy * y, sx * x) if swap else (sx * x, sy * y) for x, y in cells]
            x0 = min(x for x, _ in points)
            y0 = min(y for _, y in points)
            images.append(tuple(sorted((x - x0, y - y0) for x, y in points)))
        return min(images)

    level = {((0, 0),)}
    shapes = set(level)
    for _ in range(max_cells - 1):
        level = {
            least_image(shape + (nb,))
            for shape in level
            for x, y in shape
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if nb not in shape
        }
        shapes |= level
    return {shape for shape in shapes if simply_connected_by_flood_fill(shape)}


def refine_tiling_by_cells(tiling):
    """The 125-fold refined tiling, each refined domino's cells found by
    coordinates: its low cell in the domino's block and the cell one step
    along the axis."""
    report = validate(tiling)
    if report is not None:
        raise InvalidTiling(report)
    f = REFINE_FACTOR
    refined = refine_region(tiling.region)
    index = {c: i for i, c in enumerate(refined.cells)}
    partner = [-1] * refined.n_cells
    for low, axis in tiling.dominoes():
        base = tuple(f * x for x in low)
        spans = [range(f)] * 3
        spans[axis] = range(0, 2 * f, 2)
        for off in product(*spans):
            cell = tuple(b + o for b, o in zip(base, off))
            mate = cell[:axis] + (cell[axis] + 1,) + cell[axis + 1 :]
            i, j = index[cell], index[mate]
            partner[i], partner[j] = j, i
    return Tiling(refined, tuple(partner))


def kasteleyn_matrix_by_cells(region) -> KasteleynMatrix:
    """The signed white/black biadjacency of a balanced 2D or 3D region,
    each white cell's neighbours found by a coordinate step either way
    along each axis, the sign read at the lesser endpoint."""
    whites = tuple(c for c in region.cells if color_sign(c) == 1)
    blacks = tuple(c for c in region.cells if color_sign(c) == -1)
    black_index = {c: i for i, c in enumerate(blacks)}
    rows = []
    for w in whites:
        row = [0] * len(blacks)
        for axis in range(region.d):
            for delta in (1, -1):
                nb = w[:axis] + (w[axis] + delta,) + w[axis + 1 :]
                j = black_index.get(nb)
                if j is not None:
                    row[j] = _edge_sign(w if delta == 1 else nb, axis)
        rows.append(tuple(row))
    return KasteleynMatrix(whites, blacks, tuple(rows))


def slab_cells(slab) -> tuple:
    """The slab's four cells: corner, +b, +a, +a+b, with a < b its plane."""
    a, b = (axis for axis in range(3) if axis != slab.normal)
    cells = []
    for da, db in product((0, 1), repeat=2):
        cell = list(slab.corner)
        cell[a] += da
        cell[b] += db
        cells.append(tuple(cell))
    return tuple(cells)


def slab_flip_edges_by_difference(tilings) -> set[tuple[int, int]]:
    """Index pairs i < j of slab tilings one flip apart: they differ in
    exactly two slabs each, and both pairs cover the same eight cells."""
    edges = set()
    for i, j in combinations(range(len(tilings)), 2):
        diff = set(tilings[i].slabs) ^ set(tilings[j].slabs)
        if len(diff) == 4:
            cells = sorted(c for s in diff if s in tilings[i].slabs for c in slab_cells(s))
            other = sorted(c for s in diff if s in tilings[j].slabs for c in slab_cells(s))
            if cells == other and len(set(cells)) == 8:
                edges.add((i, j))
    return edges


def components_of_edges(n: int, edges) -> list[list[int]]:
    """The connected components of the graph on range(n), each as its
    sorted members, in order of their least member, found by merging
    labels edge by edge: the smaller group takes the larger's label."""
    label = list(range(n))
    groups = {i: [i] for i in range(n)}
    for i, j in edges:
        keep, old = label[i], label[j]
        if keep == old:
            continue
        if len(groups[keep]) < len(groups[old]):
            keep, old = old, keep
        for k in groups[old]:
            label[k] = keep
        groups[keep] += groups.pop(old)
    return sorted(map(sorted, groups.values()))


def validate_slab_tiling_by_cells(tiling) -> str | None:
    covered = set()
    for slab in tiling.slabs:
        for cell in slab_cells(slab):
            if not tiling.region.contains(cell):
                return f"slab {slab} leaves the region at {cell}"
            if cell in covered:
                return f"cell {cell} covered twice"
            covered.add(cell)
    if len(covered) != tiling.region.n_cells:
        return f"{tiling.region.n_cells - len(covered)} cells uncovered"
    return None


def _deflate_cell(cell, axes):
    i, j = axes
    out = list(cell)
    out[i] = (cell[i] + cell[j]) // 2
    out[j] = (cell[j] - cell[i]) // 2
    return tuple(out)


@lru_cache(maxsize=64)
def _derived_region_by_cells(region, pair: frozenset):
    axes = _PAIR_AXES[pair]
    mapped = [_deflate_cell(cell, axes) for cell in region.cells if four_color(cell) in pair]
    lo = tuple(min(c[a] for c in mapped) for a in range(3))
    shifted = [tuple(x - m for x, m in zip(c, lo)) for c in mapped]
    if len(set(shifted)) != len(shifted):
        raise InflationError("deflation map is not injective on the survivors")
    return make_region(shifted), lo


def inflate_by_cells(tiling, pair):
    """The domino tiling of the squeezed region, one domino per slab, of
    a valid slab tiling and a known pair."""
    pair_set = frozenset(pair)
    axes = _PAIR_AXES[pair_set]
    derived, lo = _derived_region_by_cells(tiling.region, pair_set)
    dominoes = []
    for slab in tiling.slabs:
        survivors = [c for c in slab_cells(slab) if four_color(c) in pair_set]
        if len(survivors) != 2:
            raise InflationError(
                f"slab {slab} keeps {len(survivors)} cells of pair {sorted(pair_set)}, expected 2"
            )
        a, b = (tuple(x - m for x, m in zip(_deflate_cell(c, axes), lo)) for c in survivors)
        diffs = [k for k in range(3) if a[k] != b[k]]
        if len(diffs) != 1 or abs(a[diffs[0]] - b[diffs[0]]) != 1:
            raise InflationError(f"slab {slab} deflates to non-adjacent cells {a}, {b}")
        dominoes.append(Domino(min(a, b), diffs[0]))
    return tiling_from_dominoes(derived, dominoes)


@lru_cache(maxsize=64)
def _reference_pretwist_by_cells(region, pair: frozenset):
    try:
        reference = horizontal_slab_tiling(region)
    except InvalidRegion:
        reference = next(enumerate_slab_tilings(region, cap=None))
    return pretwist(inflate_by_cells(reference, pair), 2)


def pair_twist_by_cells(inflated, region, pair) -> int:
    """Pair twist of a slab tiling of `region` from its inflation
    `inflated`: the pretwist less the inflated reference's (horizontal
    where the region has one, else the first enumerated)."""
    value = pretwist(inflated, 2) - _reference_pretwist_by_cells(region, frozenset(pair))
    if value.denominator != 1:
        raise InflationError(f"non-integral pair twist {value}")
    return int(value)


def render_floors_by_cell(tiling) -> str:
    """render_floors, reading each cell of the bounding box from the
    region's index for every tiling, and each glyph from the axis and
    direction in which the cell's partner differs from it."""
    region = tiling.region
    lo, hi = region.bounding_box
    idx = region.index
    z_range = range(lo[2], hi[2] + 1) if region.d == 3 else range(0, 1)
    lines = []
    for z in z_range:
        if region.d == 3:
            lines.append(f"floor {z}")
        for y in range(hi[1], lo[1] - 1, -1):
            row = []
            for x in range(lo[0], hi[0] + 1):
                cell = (x, y, z)[: region.d]
                if cell in idx:
                    other = region.cells[tiling.partner[idx[cell]]]
                    axis = next(a for a in range(region.d) if other[a] != cell[a])
                    row.append(_GLYPHS[2 * axis + (other[axis] < cell[axis])])
                else:
                    row.append(".")
            lines.append("".join(row))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def parse_floors(text: str, region) -> Tiling:
    """Inverse of render_floors for the given region."""
    lo, hi = region.bounding_box
    z_range = range(lo[2], hi[2] + 1) if region.d == 3 else range(0, 1)
    rows_per_floor = hi[1] - lo[1] + 1
    lines = text.splitlines()
    glyph_at = {}
    pos = 0
    for z in z_range:
        if region.d == 3:
            if pos >= len(lines) or not lines[pos].startswith("floor"):
                raise DecodeError(f"missing floor header before floor {z}")
            pos += 1
        for r in range(rows_per_floor):
            if pos >= len(lines):
                raise DecodeError(f"diagram ends inside floor {z}")
            y = hi[1] - r
            row = lines[pos]
            pos += 1
            for k, ch in enumerate(row):
                if ch != ".":
                    glyph_at[(lo[0] + k, y, z)[: region.d]] = ch
        while pos < len(lines) and lines[pos] == "":
            pos += 1
    for cell in region.cells:
        if cell not in glyph_at:
            raise DecodeError(f"cell {cell}: no glyph in diagram")
    # an unknown glyph is code -1, which the range check rejects
    return _tiling_from_codes(region, [_GLYPHS.find(glyph_at[c]) for c in region.cells])
