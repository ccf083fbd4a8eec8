"""Exact-cost slices of the cancellation polynomials, at given edge values.

Slice p is the sum, over proper walk sets of total cost exactly p, of the
product of their edge values.  Walk sets whose walks collide cancel in
pairs over characteristic two, so a nonzero slice certifies k disjoint
paths of cost p.  Two engines compute slices, each exactly:

* the table engine, TablePlan: length slices at unit costs, from the pair
  recurrence over source rows (_rows) and the subset recurrence over sink
  masks (_subset_phase).  decide_disjoint_paths reads it.
* the scan engine, scan_slices over a ScanGraph: slices at positive
  integer costs, in increasing cost.  Every costed query reads it:
  mincost, decide_cost_bounded, and both extraction strategies' searches
  and edge tests.  slice_support walks the same graph without field
  values.

The tests check each engine against the other, at costs through
oracle.subdivide_costs.  Both hold values in packed vectors (field.vec_*)
and raise BudgetError before they outgrow the memory ceiling.
"""

from __future__ import annotations

import os
from functools import partial
from heapq import heappop, heappush
from itertools import starmap
from operator import itemgetter

from .field import (
    GF2Field,
    SLOT_BITS,
    vec_reduce,
    vec_scalar_mul_w,
    vec_unpack,
    vec_window,
)
from .network import PathInstance

DEFAULT_MEMORY_LIMIT = 2 << 30  # bytes, process-wide default ceiling
_CELL_BYTES = 96  # rough per-table-cell footprint used for budget checks
_FAN_CELLS = 5  # cells charged per packed edge of a windowed fan
_MOVE_CELLS = 2  # cells charged per scan-graph move (see ScanGraph)
_REACH = itemgetter(3)  # a scan-graph move's reach
_FAN_ENTRY_CELLS = 2  # cells charged per TablePlan.fans entry (~106 bytes)
_SLOT_MASK = (1 << SLOT_BITS) - 1
_PLAN = None  # a pool worker's row plan, inherited by fork (_start_worker)


class BudgetError(RuntimeError):
    """A table would exceed the configured memory ceiling."""


def set_default_memory_limit(limit_bytes: int):
    """Process-wide ceiling that every table and scan is checked against."""
    global DEFAULT_MEMORY_LIMIT
    DEFAULT_MEMORY_LIMIT = limit_bytes


def random_assignment(field: GF2Field, m: int, rng) -> list[int]:
    """Independent uniform field values, one per edge id."""
    return [field.random_element(rng) for _ in range(m)]


def _check_assignment(instance, assignment):
    if len(assignment) != instance.m:
        raise ValueError(
            f"assignment covers {len(assignment)} edges, instance has "
            f"{instance.m}")


def _check_budget(cells: int):
    if cells * _CELL_BYTES > DEFAULT_MEMORY_LIMIT:
        raise BudgetError(
            f"{cells} table cells (~{cells * _CELL_BYTES >> 20} MiB) exceed "
            f"the {DEFAULT_MEMORY_LIMIT >> 20} MiB ceiling")


def _fan_cells(slots: int) -> int:
    """Cells charged for one windowed fan of `slots` packed edges: 5 per
    edge and 10 for the window.  A window of D slots is 15 nonzero ints
    of 16 bytes per slot, and building the plan's fan lists and the sink
    distances holds more per edge; the fan lists themselves are charged
    apart (_FAN_ENTRY_CELLS)."""
    return _FAN_CELLS * (slots + 2)


# ---------------------------------------------------------------------------
# Table engine (pair tables + subset table)
# ---------------------------------------------------------------------------

def _packs(k: int, widths) -> bool:
    """Whether a plan's serial route is the packed row pass: when the
    mean width of its fans (widths, the out-edge counts of the vertices
    that have any) is below k, so never at k = 1.  Both routes give the
    same rows, so the rule changes only speed.

    Per cell, the packed pass makes one product per out-edge and the
    per-row route one per row, at about the same cost per product
    (tools/kernel_timing.py), so packing pays up to some mean width above
    k.  The rule stops at k, short of that crossover, so that criterion 7
    times the pool against the per-row route that the pool maps (ROADMAP,
    "Measured and kept": the packing rule at k).
    """
    return sum(widths) < k * len(widths)


class TablePlan:
    """The table engine's plan for one instance and length bound (at least
    1), at unit costs: everything an evaluation reads that does not
    depend on the edge values, built once per query.

    togo is sink_distances, and floor = sum of the sources' d_i =
    togo(source i), the least length of any walk set, or None when some
    source reaches no sink.  Row i's walk in a set of total length <=
    bound has at most budgets[i] = bound - floor + d_i edges, since every
    other walk has at least its own d (-1 when floor is None).  fans[u]
    lists the edges a row relaxes out of vertex u (u non-terminal, head
    not a source and reaching a sink) as (reach, head, edge id) in
    increasing reach = 1 + togo(head), so a reader with a cut stops at
    the first edge past it.  packs is _packs of the fans' widths.

    The memory ceiling is charged pair_cells, subset_cells and fan_cells
    (_fan_cells of each fan, and _FAN_ENTRY_CELLS per fan entry), and checked
    once per evaluation, before any row runs.  pair_cells is, per row, k
    sink columns of budget cells, and one cell per non-source vertex for
    the two layers a pass holds (a reduced and an unreduced value, at
    most 96 bytes per row).  subset_cells is (1 << k)(bound + 1), though
    the subset tables hold W = bound - floor + 1 slots each: criterion 7
    asserts that the charge doubles per unit of k on instances whose
    floors differ, which a charge of (1 << k) W would not.
    """

    def __init__(self, instance: PathInstance, bound: int):
        if bound < 1:
            raise ValueError(f"bound {bound} below 1")
        k = instance.k
        self.instance = instance
        self.bound = bound
        self.togo = togo = sink_distances(instance)
        floors = [togo.get(x) for x in instance.sources]
        self.floor = None if None in floors else sum(floors)
        self.budgets = [-1] * k if self.floor is None else \
            [bound - self.floor + d for d in floors]
        self.fans = fans = [[] for _ in range(instance.n)]
        for eid, (u, v) in enumerate(zip(instance.tails, instance.heads)):
            if not instance.is_terminal(u) and \
                    v not in instance.source_index and v in togo:
                fans[u].append((1 + togo[v], v, eid))
        for out in fans:
            out.sort()
        widths = [len(out) for out in fans if out]
        self.packs = _packs(k, widths)
        self.pair_cells = sum(instance.n - k + k * max(budget, 0)
                              for budget in self.budgets)
        self.subset_cells = (1 << k) * (bound + 1)
        self.fan_cells = sum(map(_fan_cells, widths)) + \
            _FAN_ENTRY_CELLS * sum(widths)

    def slices(self, assignment, field: GF2Field,
               parallelism: int = 1) -> list[int]:
        """One evaluation: the list of the exact slice values 0..bound at
        the assignment (one field element per edge id), bit-identical at
        every parallelism.  Raises BudgetError above the memory ceiling,
        and ValueError on an assignment of another length.

        On a packing plan (self.packs) the serial route is one packed
        _rows pass over all k rows.  Otherwise, and on the pool, each fan's
        values are packed one per slot and windowed once, and each row is
        one per-row _rows pass.  With parallelism > 1, k > 1 and two or
        more usable cores, one fork pool of min(parallelism, k, usable
        cores) workers serves the evaluation: each inherits the windowed
        plan as it forks and moves once to a core of its own
        (_start_worker).  The rows are queued first, then each subset
        level as soon as the row it reads is in.  A plan whose floor is
        None or above its bound answers all zeros after the budget check,
        before any row runs.  multiprocessing is imported only where a
        pool can start, so a serial process never loads it.
        """
        if parallelism < 1:
            raise ValueError(f"parallelism {parallelism} below 1")
        _check_assignment(self.instance, assignment)
        k, bound = self.instance.k, self.bound
        _check_budget(self.pair_cells + self.subset_cells + self.fan_cells)
        if self.floor is None or self.floor > bound:
            return [0] * (bound + 1)  # no walk set within the bound
        cores = _usable_cores() if min(parallelism, k) > 1 else []
        procs = min(parallelism, k, len(cores))
        if procs > 1:
            import multiprocessing
        forks = procs > 1 and "fork" in multiprocessing.get_all_start_methods()
        if self.packs and not forks:
            rows = _rows(self, assignment, field, None, range(k))
            return _subset_phase(self, rows, field, starmap)
        windows = []
        for out in self.fans:
            packed = 0
            for slot, (_, _, eid) in enumerate(out):
                packed |= assignment[eid] << (SLOT_BITS * slot)
            windows.append(vec_window(packed) if out else None)
        rows_plan = (self, assignment, field, windows)
        if forks:
            ctx = multiprocessing.get_context("fork")
            places = ctx.SimpleQueue()
            for core in cores[:procs]:
                places.put(core)
            with ctx.Pool(processes=procs, initializer=_start_worker,
                          initargs=(rows_plan, places)) as pool:
                return _subset_phase(self, pool.imap(_pair_row, range(k)),
                                     field, partial(pool.starmap,
                                                    chunksize=1))
        rows = [_rows(*rows_plan, (xi,))[0] for xi in range(k)]
        del windows, rows_plan  # the subset phase reads no window
        return _subset_phase(self, rows, field, starmap)


def _usable_cores() -> list:
    """The cores this process may run on, or one None per CPU where the
    platform has no affinity calls."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def _start_worker(plan, places):
    """Pool initializer, once in each worker as it starts: the row plan,
    inherited by fork, for its row tasks, and its one move, to the next
    core in places, which holds a distinct usable core for each worker."""
    global _PLAN
    _PLAN = plan
    _move_to_core(places.get())


def _move_to_core(core):
    """Move this process to the given core, then let the kernel balance it.

    Forked workers start on the caller's core and can stay stacked there
    for a whole evaluation.  The move is only a hint: with core None (no
    affinity calls on this platform), or where the host refuses it, the
    process stays where it is.
    """
    if core is None:
        return
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {core})
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _pair_row(xi):
    """Pool task: source row xi of the inherited plan."""
    return _rows(*_PLAN, (xi,))[0]


def _backward_costs(targets, preds):
    """Least cost from every node to the nearest of `targets`, where
    preds[w] lists (v, c) for each arc v -> w of integer cost c >= 1.

    One backward pass with a bucket queue over the integer costs (Dial):
    buckets are settled in increasing cost, each time the least non-empty
    one, so each node's first pop is its least cost, and sparse costs
    visit only the buckets they fill.  A node that reaches no target has
    no entry.
    """
    togo = {}
    buckets = {0: list(targets)}
    while buckets:
        at = min(buckets)
        for key in buckets.pop(at):
            if key in togo:
                continue
            togo[key] = at
            for node, c in preds.get(key, ()):
                if node not in togo:
                    buckets.setdefault(at + c, []).append(node)
    return togo


def sink_distances(instance: PathInstance) -> dict:
    """togo[v]: the least length of a walk from v to a sink along the
    table recurrence's edges (tail not a sink, inner vertices
    non-terminal, head not a source); sinks have 0, and a vertex with no
    such walk has no entry.  At a source it is d_i, the least length of
    any walk from source i, so no walk set is shorter than sum(d_i)."""
    return _backward_costs(instance.sinks,
                           _recurrence_preds(instance, [1] * instance.m))


def _recurrence_preds(instance: PathInstance, costs) -> dict:
    """preds[v]: (u, c(e)) for each edge e = (u, v) a walk may take, tail
    not a sink and head not a source, for _backward_costs."""
    preds = {}
    for eid, (u, v) in enumerate(zip(instance.tails, instance.heads)):
        if u not in instance.sink_index and v not in instance.source_index:
            preds.setdefault(v, []).append((u, costs[eid]))
    return preds


def _rows(plan, assignment, field, windows, rows):
    """Walk-table values at the sinks for the source rows listed in rows:
    out[i][j][q-1] is the sum, over the walks of exactly q edges from
    source rows[i] to sink j, of their products, for q up to that row's
    budget.  The plan's floor must be at most its bound, so every budget
    is at least 1.  Both routes give the same exact values.

    One recurrence extends the walks one edge at a time and holds only
    layers q and q + 1 and each sink's column; cell (q, v) holds row
    rows[i]'s value in slot i.  Each nonzero cell (q, u) is reduced once,
    by vec_reduce over one slot per row on either route, joins u's column
    when u is a sink, and is pushed along plan.fans[u], each product
    going unreduced into (q + 1, v): reduction is GF(2)-linear, so this
    equals reducing every product.  Both operands are reduced (< 2^64),
    so a slot stays below 2^127.  Two routes:
    * packed (windows None, any number of rows): the cell windowed, and
      one scalar product per out-edge gives it for every row;
    * per row (one row): windows[u], the values of fans[u] one per slot,
      so one scalar product by the cell gives every out-edge's.

    The pass runs to the deepest budget top of its rows and writes cell
    (q, v) only when q + togo(v) <= top; each column is then cut to its
    row's budget.  A walk within that budget passes only through written
    cells (togo(u) <= 1 + togo(v) on every edge), so the cut changes no
    value.  Rows never read one another, so each can run in any process.
    """
    instance, togo, fans = plan.instance, plan.togo, plan.fans
    budgets = [plan.budgets[r] for r in rows]
    top = max(budgets)
    layer = [0] * instance.n
    for slot, r in enumerate(rows):
        for eid in instance.out_edges[instance.sources[r]]:
            v = instance.heads[eid]
            if v not in instance.source_index and v in togo and \
                    1 + togo[v] <= budgets[slot]:
                layer[v] ^= assignment[eid] << (SLOT_BITS * slot)
    columns = [[] for _ in instance.sinks]
    width = len(budgets)
    reduce, window, mul = vec_reduce, vec_window, vec_scalar_mul_w
    for q in range(1, top + 1):
        after = [0] * instance.n
        cut = top - q
        for u, cell in enumerate(layer):
            if not cell:
                continue
            layer[u] = cell = reduce(cell, width, field)
            out = fans[u]
            if not cell or not out or out[0][0] > cut:
                continue
            if windows is None:
                win = window(cell)
                for reach, v, eid in out:
                    if reach > cut:
                        break
                    after[v] ^= mul(win, assignment[eid])
                continue
            products = mul(windows[u], cell)
            for reach, v, _ in out:
                if reach > cut:
                    break
                after[v] ^= products & _SLOT_MASK
                products >>= SLOT_BITS
        for column, y in zip(columns, instance.sinks):
            column.append(layer[y])
        layer = after
    return [[[cell >> (SLOT_BITS * slot) & _SLOT_MASK
              for cell in column[:budget]] for column in columns]
            for slot, budget in enumerate(budgets)]


def _subset_phase(plan, rows, field, mapper):
    """The exact slices 0..bound from the source rows (_rows), by the
    subset recurrence over sink masks; the plan's floor must be at most
    its bound.

    rows is read in order, one row per level (a list, or a pool's imap).
    No walk from source i is shorter than d_i, and the walks still to
    come add at least their own d, so a mask of popcount t is nonzero
    only at the lengths sum_{i<t} d_i to bound - sum_{i>=t} d_i: its
    slack window of W = bound - floor + 1 slots, which is all its table
    holds.  The table of mask B is the sum over sinks j in B of the table
    of B - {j} times the window of row |B|-1's column j (_subset_term).
    A level of one popcount reads only the level below, so mapper (a
    pool's starmap, or itertools.starmap) computes one level's terms at a
    time, and each mask XORs its terms and is reduced once.  Level 1 is
    row 0's windows, with no product.  Returns floor zeros, then the full
    mask's W slots.
    """
    k = plan.instance.k
    width = plan.bound - plan.floor + 1
    tables = [0] * (1 << k)
    tables[0] = 1  # slot 0 holds field one: empty set at length 0
    levels = [[] for _ in range(k)]
    for mask in range(1, 1 << k):
        levels[bin(mask).count("1") - 1].append(mask)
    starts = (plan.togo[x] - 1 for x in plan.instance.sources)
    rows = ([column[start:start + width] for column in row]
            for start, row in zip(starts, rows))  # each column's window
    for j, column in enumerate(next(rows, ())):
        for s, a in enumerate(column):
            tables[1 << j] |= a << (SLOT_BITS * s)
    for row, level in zip(rows, levels[1:]):
        owners, terms = [], []
        for mask in level:
            for j, column in enumerate(row):
                if mask >> j & 1 and tables[mask ^ (1 << j)] and any(column):
                    owners.append(mask)
                    terms.append((tables[mask ^ (1 << j)], column, width))
        for mask, term in zip(owners, mapper(_subset_term, terms)):
            tables[mask] ^= term
        for mask in level:
            if tables[mask]:
                tables[mask] = vec_reduce(tables[mask], width, field)
    return [0] * plan.floor + vec_unpack(tables[-1], width)


def _subset_term(prev, column, size):
    """One (mask, sink) term of the subset phase, unreduced: the sum over
    s of column[s] times the packed table prev shifted up s slots, cut to
    `size` slots: both are slack windows of at most size slots, each from
    its least length (_subset_phase).  A shift by s needs only the low
    size - s slots of prev; its window is rebuilt from just those slots
    whenever that count halves."""
    acc = 0
    win = None
    for s, a in enumerate(column):
        if not a:
            continue
        need = size - s  # slots of prev that land inside the window
        if win is None or 2 * need <= slots:
            slots = need
            win = vec_window(prev & ((1 << (SLOT_BITS * need)) - 1))
        acc ^= vec_scalar_mul_w(win, a) << (SLOT_BITS * s)
    return acc & ((1 << (SLOT_BITS * size)) - 1)


def eval_length_bounded_seq(plan: TablePlan, assignment, field: GF2Field,
                            parallelism: int = 1) -> int:
    """Value of the length-bounded walk polynomial at a plan: the XOR of
    its slices k..bound, the source rows across `parallelism`
    processes."""
    acc = 0
    for value in plan.slices(assignment, field, parallelism)[plan.instance.k:]:
        acc ^= value
    return acc


# ---------------------------------------------------------------------------
# Combined-state scan engine
# ---------------------------------------------------------------------------

class ScanGraph(dict):
    """The scan engine's state graph for one instance and one vector of
    positive integer costs, with the exact cost still to go from every
    state, built on demand: a dict from each state read so far to its
    moves.

    A state is the integer B * n + z: the walks to the sinks in mask B are
    finished, and the current walk stands at z (the next unstarted source,
    sources[|B|], between walks); the start is sources[0].  togo(state) is
    the least cost of moves that finishes every remaining walk, in closed
    form.  dist_j(v) is the least cost of a walk from v to sink j through
    non-terminals (one _backward_costs pass per sink), and rest(M) the
    least cost of the walks of sources |M|..k-1 once the sinks in M are
    finished, a DP over sink masks: rest(full) = 0, and rest(M) = min
    over j not in M of dist_j(sources[|M|]) + rest(M | j).  Then togo(B,
    z) = min over j not in B of dist_j(z) + rest(B | j), None when no
    walk set finishes from there, and floor = togo(start) = rest(0),
    None when no walk set exists at all.

    graph[state] lists (edge id, cost, next state, reach, slot) in
    increasing reach = cost + togo(next state) (the cost alone, and next
    state None, when the move finishes the last walk); slot is the edge's
    index in out_edges[z], its slot in the scan's fan.  An edge into a
    non-terminal extends the walk, one into an unfinished sink finishes it
    and starts the next source's walk, every other edge is no move, and a
    move into a state that cannot finish is dropped.  __missing__ builds
    a state's moves the first time a reader reads them, so a reader
    materializes only the states it expands.

    The memory ceiling is charged the distance tables before they are
    built, one cell per edge (the predecessor lists) and per two (sink,
    vertex) pairs or sink masks; then one cell per state built and
    _MOVE_CELLS per move.  cells is that running charge, which every
    reader adds to its own; it is checked as soon as it passes the
    ceiling.
    """

    def __init__(self, instance: PathInstance, costs):
        super().__init__()
        k, n = instance.k, instance.n
        self.cells = instance.m + (k * n + (1 << k)) // 2
        _check_budget(self.cells)
        preds = _recurrence_preds(instance, costs)
        dist = []
        for y in instance.sinks:
            to_y = _backward_costs([y], preds)
            dist.append([to_y.get(v) for v in range(n)])
        full = (1 << k) - 1
        rest = [None] * full + [0]
        for mask in range(full - 1, -1, -1):
            rest[mask] = _least_to_go(dist, rest, mask,
                                      instance.sources[bin(mask).count("1")])
        self.instance = instance
        self.costs = costs
        self.dist = dist
        self.rest = rest
        self.start = instance.sources[0]
        self.floor = rest[0]

    def togo(self, state):
        """The least cost of moves that finishes every remaining walk from
        state, or None when no move sequence does."""
        return _least_to_go(self.dist, self.rest,
                            *divmod(state, self.instance.n))

    def __missing__(self, state):
        instance, costs = self.instance, self.costs
        n = instance.n
        bmask, z = divmod(state, n)
        after = bin(bmask).count("1") + 1  # the next walk's source index
        moves = []
        for slot, eid in enumerate(instance.out_edges[z]):
            w = instance.heads[eid]
            c = costs[eid]
            mask = bmask
            if instance.is_terminal(w):
                j = instance.sink_index.get(w)
                if j is None or bmask >> j & 1:
                    continue
                if after == instance.k:
                    moves.append((eid, c, None, c, slot))
                    continue
                mask, w = bmask | 1 << j, instance.sources[after]
            key = mask * n + w
            t = _least_to_go(self.dist, self.rest, mask, w)
            if t is not None:
                moves.append((eid, c, key, c + t, slot))
        moves.sort(key=_REACH)
        self[state] = moves
        self.cells += 1 + _MOVE_CELLS * len(moves)
        _check_budget(self.cells)  # raise before the graph outgrows it
        return moves


def _least_to_go(dist, rest, bmask, z):
    """min over sinks j not in bmask of dist[j][z] + rest[bmask | j]: the
    cost to go from state (bmask, z), or None when nothing finishes."""
    best = None
    for j, to_j in enumerate(dist):
        if bmask >> j & 1 or to_j[z] is None:
            continue
        after = rest[bmask | 1 << j]
        if after is not None and (best is None or to_j[z] + after < best):
            best = to_j[z] + after
    return best


def scan_slices(graph: ScanGraph, assignment, field: GF2Field, cap: int):
    """Yield (d, value) for each exact-cost slice d <= cap at the graph's
    costs whose value at the assignment is nonzero, in increasing d.
    Every value yielded is exact.

    Pending states are grouped by the key (d + togo(state), d) and the
    least key is popped first (A* order, Hart, Nilsson and Raphael 1968):
    a move of cost c goes to group (d + reach, d + c), and one that
    finishes the last walk to (d', d'), d' = d + c, the group of the walk
    sets of cost d'.  togo is consistent, togo(u) <= c(e) + togo(v) on
    every move, and costs are >= 1, so every predecessor of a state has
    a smaller key.  So each state's value is complete when its group is
    popped, and slices come in increasing d; a scan that stops at its
    first nonzero slice d* has expanded only the states with d + togo <=
    d*.  A move out of a state at cost d is skipped when d + reach > cap:
    no walk set through it finishes within the cap, so skipping changes
    no slice up to the cap.  With cap below graph.floor nothing is
    expanded.

    Each state is reduced once, when its group is popped, and a move's
    product goes unreduced into its target.  The values of position z's
    out-edges are packed one per slot and windowed the first time a state
    at z is expanded, so one scalar product per expanded state gives each
    move's product in its slot; both operands are below 2^64, so a slot
    stays below 2^127.  The memory ceiling is checked once
    per popped group against the entries still pending, one cell per
    pending group, the graph's cells and the fans built so far.
    """
    instance = graph.instance
    n = instance.n
    _check_assignment(instance, assignment)
    reduce = field.reduce
    fans = {}  # position -> window of its packed out-edge values
    fan_cells = 0
    # (d + togo, d) -> state -> value (unreduced); the state None holds
    # the finished walk sets of cost d, in group (d, d).  keys is a heap of
    # pending's keys, and queued counts the entries of all its groups.
    pending = {}
    keys = []
    queued = 0
    if graph.floor is not None and graph.floor <= cap:
        pending[graph.floor, 0] = {graph.start: 1}
        keys.append((graph.floor, 0))
        queued = 1
    while keys:
        group = heappop(keys)
        d = group[1]
        states = pending.pop(group)
        queued -= len(states)
        done = states.pop(None, 0)
        if done:
            value = reduce(done)
            if value:
                yield d, value
        _check_budget(len(states) + queued + len(pending) + graph.cells
                      + fan_cells)
        cut = cap - d
        for state, raw in states.items():
            value = reduce(raw)
            if not value:
                continue
            z = state % n
            win = fans.get(z)
            if win is None:
                packed = 0
                for slot, eid in enumerate(instance.out_edges[z]):
                    packed |= assignment[eid] << (SLOT_BITS * slot)
                win = fans[z] = vec_window(packed)
                fan_cells += _fan_cells(len(instance.out_edges[z]))
            products = vec_scalar_mul_w(win, value)
            for _, c, key, reach, slot in graph[state]:
                if reach > cut:
                    break
                carried = products >> (SLOT_BITS * slot) & _SLOT_MASK
                if not carried:
                    continue
                to = d + reach, d + c
                tgt = pending.get(to)
                if tgt is None:
                    tgt = pending[to] = {}
                    heappush(keys, to)
                if key in tgt:
                    tgt[key] ^= carried
                else:
                    tgt[key] = carried
                    queued += 1


def slice_support(graph: ScanGraph, alive, d: int) -> tuple[list, list]:
    """(support, forced): one bool per edge id, true for the alive edges
    that lie on some, and on every, walk set of exact cost d built from
    alive edges only (alive[e] is true for a usable edge).  Both are
    exact: the pass does no field arithmetic, so it cannot err.

    One forward pass visits the graph's states in increasing cost,
    skipping the moves that cannot finish by cost d, as scan_slices does.
    Each pending (cost, state) carries two int bitmasks: the edges that
    some prefix reaching it avoids, and those that some prefix reaching
    it uses; a move clears its edge's bit in the first, sets it in the
    second and ORs both into its target.  The moves that finish at
    exactly d end every walk set of cost d: the OR of their used masks is
    the support, and an edge of it whose bit is clear in the OR of their
    avoided masks is forced.  Every monomial of slice d is the product
    along one such walk set, so zeroing an edge outside the support
    leaves that slice unchanged at every assignment, and zeroing a forced
    one makes it an empty sum.  Each layer is dropped once it is
    expanded.  The memory ceiling is checked once per layer against the
    graph's cells and the pending entries, each charged one cell for its
    dict slot and pair and 1 + m // 540 for each mask, since an m-bit int
    takes about 24 + m/7.5 bytes.
    """
    m = graph.instance.m
    # pending cost -> state -> (avoided mask, used mask)
    layers = {} if graph.floor is None or graph.floor > d else \
        {0: {graph.start: ((1 << m) - 1, 0)}}
    costs = list(layers)  # heap of the pending costs
    pending = len(layers)  # entries of the pending layers
    avoided = used = 0  # over the moves that finish at exactly d
    while costs:
        at = heappop(costs)
        _check_budget(pending * (3 + 2 * (m // 540)) + graph.cells)
        states = layers.pop(at)
        pending -= len(states)
        for state, (avoids, uses) in states.items():
            for eid, c, key, reach, _ in graph[state]:
                if at + reach > d:
                    break
                d2 = at + c
                if not alive[eid] or (key is None and d2 != d):
                    continue
                bit = 1 << eid
                if key is None:
                    avoided |= avoids & ~bit
                    used |= uses | bit
                    continue
                tgt = layers.get(d2)
                if tgt is None:
                    tgt = layers[d2] = {}
                    heappush(costs, d2)
                old = tgt.get(key)
                if old is None:
                    tgt[key] = avoids & ~bit, uses | bit
                    pending += 1
                else:
                    tgt[key] = old[0] | avoids & ~bit, old[1] | uses | bit
    return tuple([bool(mask >> e & 1) for e in range(m)]
                 for mask in (used, used & ~avoided))  # support, forced


def scan_min_cost_slice(graph: ScanGraph, assignment, field: GF2Field,
                        cap: int):
    """(p, value) for the least slice p <= cap that is nonzero at the
    assignment, at the graph's costs, or None; with cap below graph.floor,
    None without expanding a state.  The value is exact.  p lies above the
    least nonzero slice polynomial, or None comes back, only when that
    polynomial vanishes at the point (decision.slice_degree bounds how
    often).

    Callers cap the scan at most at the simple-set cost bound at the
    graph's costs (PathInstance.simple_cost_cap): the least nonzero
    slice, when one exists at all, is certified by k vertex-disjoint
    simple paths, whose cost that bound dominates.
    """
    return next(scan_slices(graph, assignment, field, cap), None)
