"""Dynamic-programming evaluation of the cancellation polynomials.

Given an assignment of field values to edge variables, exact-measure
slice values are computed: for each total cost p, the field value of the
sum over proper walk sets of total cost exactly p.  Length is the
unit-cost case, and the cumulative XOR of the slices up to a bound l is
the length-bounded walk polynomial.  Two engines compute them:

* the table engine (TablePlan): one pipeline that produces each source
  row's table by the cost-indexed pair recurrence (_pair_by_cost, one
  walk extended one edge at a time, q -> q + c(e)) and combines the rows
  by the subset recurrence over sink masks (_subset_phase).  Edge costs
  are handled implicitly instead of materializing the subdivided network
  (an edge of cost c replaced by a unit-cost path of length c);
  oracle.subdivide_costs builds the explicit subdivision as the ground
  truth for this equivalence.  A TablePlan holds what does not depend on
  the edge values and is built once per query, the table engine's
  counterpart of ScanGraph; plan.slices(assignment, field) is one
  evaluation, the plain list of slice values up to the plan's bound (l
  at unit costs, eval_length_bounded_seq).  The rows take one of two
  routes, which give bit-identical rows.  Per row (_pair_by_cost), the
  edges a row relaxes are grouped by cost and tail into fans, whose
  values are packed one per slot and windowed once per evaluation, so
  one scalar product per (layer, tail, cost) gives every out-edge's
  product; the products go unreduced into their heads' cells, and each
  cell is reduced once, when its layer is complete.  Packed
  (_packed_rows), all k rows run as one recurrence whose cell (q, v)
  holds row r's value in slot r: each cell is reduced and windowed
  once, and one scalar product per out-edge gives that edge's product
  for every row, the way the paper evaluates its rows side by side.
  A plan packs when its fans are narrower than k on average (_packs),
  and then its serial route is the packed pass; the pool always maps
  the per-row task.  A row's table holds only the cells that can
  still finish within the bound.  sink_distances gives togo(v), the
  least cost from v to a sink along the recurrence's edges, and d_i =
  togo(source i) (one backward bucket-queue pass, shared with the scan
  graph).  A walk set of total cost <= bound holds its source-r walk at
  cost at most budget_r = bound - sum_{i != r} d_i, and a prefix of that
  walk at (q, v) still needs at least togo(v): so row r is budget_r
  layers deep and computes cell (q, v) only when q + togo(v) <= budget_r,
  and a source that reaches no sink leaves every row empty.  Every kept
  cell reads only kept cells, because togo(u) <= c(e) + togo(v) on each
  edge e = (u, v), so its value is the unpruned one, and every dropped
  cell lies on walk sets of total cost above the bound only: no slice at
  or below the bound changes.

* the scan engine (scan_slices): one walk-at-a-time pass over a combined
  state space (finished-sinks mask, current walk position), one field
  element per (cost, state), popped best first: in increasing cost plus
  cost to go.
  _state_moves is the one transition rule of that state graph, and
  ScanGraph builds the graph once per cost vector: its reachable states,
  their moves, and for each state togo, the least cost that finishes
  every remaining walk (one backward shortest-path pass, the exact lower
  bound of A*).  Every scan skips a move out of a state at cost d into a
  state with d + c(e) + togo > cap.  That is exact: a walk set of cost
  <= cap has, at each of its states, a prefix cost d and a remainder of
  cost at least togo, so it passes only through moves that are kept, and
  a skipped move carries no walk set the scan could yield.  Each state's
  moves are sorted by c(e) + togo, so a scan stops at the first one past
  its cap.  States that cannot finish at all are dropped from the graph.
  The scan takes the table engine's fan layout: the values of a
  position's out-edges are packed one per slot and windowed once per
  scan, one scalar product per expanded state gives every move's
  product, and each state is reduced once.  Pending states are visited
  from a heap keyed by (d + togo, d), so a scan visits only the costs that
  some state reaches, and a graph at sparse, large costs (isolation's
  perturbed costs, c(e)*scale + w(e)) scans as fast as one at small
  costs.  Because togo is consistent, slices still come in increasing
  cost, and scan_min_cost_slice, which stops at the first nonzero slice
  d*, expands only the states with d + togo <= d*: it serves minimum-cost
  queries and edge-essentiality tests without materializing full tables,
  and a cap below the graph's floor (the start state's togo) expands
  nothing.  slice_support walks the same graph without field values, in
  one forward pass that holds only its pending layers, to find the edges
  a slice can contain at all and those each of its monomials contains:
  deletion, the one strategy with per-edge tests, skips the test of
  every edge outside the first set and of every edge in the second, and
  isolation reads its essential edges off the two sets.

The two engines are independent routes to the same slices, and each
checks the other in the tests.  The table engine's data parallelism is
over source rows, and then over the sink masks of one popcount: walks
from different sources never meet in the pair recurrence, and a level of
the subset recurrence reads only the level below.  So the pipeline maps
the rows, then the subset levels one at a time, either in this process
(the packed pass in place of the rows on a packing plan) or over one
pool of worker processes, with bit-identical results.

Layer tables and scan fans live in packed-vector form (see field.vec_*)
so that an update is a handful of big-int operations instead of a Python
loop per cell.
"""

from __future__ import annotations

import multiprocessing
import os
from bisect import bisect_right
from functools import partial
from heapq import heappop, heappush
from itertools import starmap

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
_MOVE_CELLS = 4  # cells charged per scan-graph move (see ScanGraph)
_TAIL_CELLS = 2  # cells charged per TablePlan.tails entry (~106 bytes)
_SLOT_MASK = (1 << SLOT_BITS) - 1
_PLAN = None  # a pool worker's row plan, inherited by fork (_set_plan)


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
    edge and 10 for the window.  A window of D slots takes about 450 +
    240 D bytes, a table fan holds two lists of its heads beside it, and
    building the table fans and the sink distances holds about 140 bytes
    more per edge (tracemalloc, 64-bit CPython 3.11)."""
    return _FAN_CELLS * (slots + 2)


def subset_table_cells(k: int, bound: int) -> int:
    """Exact subset-table size: one cell per (B subset of Y, index 0..bound)."""
    return (1 << k) * (bound + 1)


# ---------------------------------------------------------------------------
# Table engine (pair tables + subset table)
# ---------------------------------------------------------------------------

def _packs(k: int, widths) -> bool:
    """Whether a plan's serial route is the packed row pass, from its k
    and the widths of its fans: k > 1 and a mean fan width below k.

    Per cell, the packed pass makes one product per out-edge and the
    per-row route one per row and fan, and a product costs about the same
    at 1 to 4 slots (tools/kernel_timing.py), so packing pays below some
    mean width above k.  Measured crossover (whole serial evaluations,
    same-process A/B, layered unit-cost instances of width 5 and depth 6,
    2-core host, CPython 3.11): packed over per-row time 0.89-0.96 at
    k = 2 for mean fans 1.6-2.6 and 1.17 at 3.6; 0.67-0.87 at k = 3 for
    1.8-3.7 and 0.98-1.03 at 4.7; 0.69-0.93 at k = 4 for 2.0-5.9.  The
    rule packs only where packing won at every k, and so stops short of
    the crossover at each k: it leaves per row decide's k = 2 shapes
    (mean fan 2.5-2.6), where packing took 0.82-0.86 of the per-row
    time, and criterion 7's instance (4.9 at k = 4, l = 252), where it
    took 0.81 (medians of 8 alternating fresh-process runs).  Moving the
    rule up to the crossover would make criterion 7 time the pool, which
    maps the per-row task, against the packed pass (ROADMAP item 7).
    """
    return k > 1 and sum(widths) < k * len(widths)


class TablePlan:
    """The table engine's plan for one instance, bound and cost vector:
    everything an evaluation reads that does not depend on the edge
    values, built once per query.

    togo is sink_distances at these costs, and floor = sum of the
    sources' d_i = togo(source i), or None when some source reaches no
    sink (then no walk set exists at all).  Row i's walk in a set of
    total cost <= bound costs at most budgets[i] = bound - floor + d_i,
    since every other walk costs at least its own d (-1, an empty row,
    when floor is None).  fans groups the relaxable edges (tail
    non-terminal, head not a source and reaching a sink) by cost and then
    by tail: [(c, fans)] in increasing c, each fan (first key, u, keys,
    heads, edge ids) for the cost-c out-edges of tail u, heads in
    increasing togo(head), keys those togo values, and the fans of one
    cost in increasing first key.  The fans are built at every bound.

    packs (_packs, from k and the fans' widths) says whether the serial
    route is the packed row pass (_packed_rows) or one _pair_by_cost per
    row; the pool always maps _pair_by_cost.  A packing plan also holds
    tails: for each vertex, the (reach, c, head, edge id) of its fans'
    edges in increasing reach = c + togo(head), () for a vertex with no
    fan; it is None on any other plan.

    The memory ceiling is charged pair_cells, the pair rows unpruned at
    bound - k + 1 layers each (each other walk costs at least d_i >= 1,
    so no budget exceeds that), subset_cells and fan_cells (_fan_cells
    of each fan, and _TAIL_CELLS per entry of tails), and checked once
    per evaluation, before any row runs.
    """

    def __init__(self, instance: PathInstance, bound: int, costs):
        if bound < 1:
            raise ValueError(f"bound {bound} below 1")
        k = instance.k
        self.instance = instance
        self.bound = bound
        self.costs = costs
        self.togo = togo = sink_distances(instance, costs)
        floors = [togo.get(x) for x in instance.sources]
        self.floor = None if None in floors else sum(floors)
        self.budgets = [-1] * k if self.floor is None else \
            [bound - self.floor + d for d in floors]
        groups = {}
        for eid, (u, v) in enumerate(instance.edges):
            if not instance.is_terminal(u) and \
                    v not in instance.source_index and v in togo:
                groups.setdefault(costs[eid], {}).setdefault(u, []).append(
                    (togo[v], v, eid))
        self.fans = []
        for c, tails in sorted(groups.items()):
            fans = []
            for u, fan in tails.items():
                fan.sort(key=lambda edge: edge[0])
                keys = [edge[0] for edge in fan]
                fans.append((keys[0], u, keys, [edge[1] for edge in fan],
                             [edge[2] for edge in fan]))
            fans.sort(key=lambda fan: fan[0])
            self.fans.append((c, fans))
        widths = [len(fan[3]) for _, fans in self.fans for fan in fans]
        self.packs = _packs(k, widths)
        self.tails = None
        if self.packs:
            tails = {}
            for c, fans in groups.items():
                for u, fan in fans.items():
                    tails.setdefault(u, []).extend(
                        (c + key, c, v, eid) for key, v, eid in fan)
            self.tails = [()] * instance.n
            for u, out in tails.items():
                self.tails[u] = sorted(out)
        self.pair_cells = max(bound - k + 1, 0) * instance.n * k
        self.subset_cells = subset_table_cells(k, bound)
        self.fan_cells = sum(_fan_cells(width) for width in widths) + \
            (_TAIL_CELLS * sum(widths) if self.packs else 0)

    def slices(self, assignment, field: GF2Field,
               parallelism: int = 1) -> list[int]:
        """One evaluation: the slice values 0..bound at the given edge
        values.

        On a packing plan (self.packs) the serial route is one packed
        pass over all k rows (_packed_rows), which windows no fan.  On any
        other plan, and on the pool, each fan's values are packed one per
        128-bit slot and windowed once (vec_window), so that one scalar
        product gives every edge's product at once, and each row is one
        _pair_by_cost.  With parallelism > 1, k > 1 and two or more
        usable cores, one fork pool of min(parallelism, k, usable cores)
        workers serves the whole evaluation: the workers inherit the
        windowed plan when they fork (the pool's initializer), so no task
        carries it.  All source rows (_pair_by_cost, round-robin over the
        usable cores) are queued first, then each level of the subset
        phase as soon as the row it reads is in, one task at a time, so
        a level's terms can run while a later row is still out.
        Otherwise both phases map inline, in this process.  Both row
        routes give the same rows and the subset phase is one code, so
        the result is bit-identical for every parallelism degree.
        """
        if parallelism < 1:
            raise ValueError(f"parallelism {parallelism} below 1")
        _check_assignment(self.instance, assignment)
        k, bound = self.instance.k, self.bound
        _check_budget(self.pair_cells + self.subset_cells + self.fan_cells)
        cores = _usable_cores()
        procs = min(parallelism, k, len(cores))
        forks = procs > 1 and "fork" in multiprocessing.get_all_start_methods()
        if self.packs and not forks:
            rows = _packed_rows(self, assignment, field)
            return _subset_phase(k, bound, rows, field, starmap)
        windowed = []
        for c, fans in self.fans:
            group = []
            for first, u, keys, heads, eids in fans:
                packed = 0
                for slot, eid in enumerate(eids):
                    packed |= assignment[eid] << (SLOT_BITS * slot)
                group.append((first, u, keys, heads, vec_window(packed)))
            windowed.append((c, group))
        rows_plan = (self, assignment, field, windowed)
        if forks:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=procs, initializer=_set_plan,
                          initargs=(rows_plan,)) as pool:
                rows = [pool.apply_async(_pair_row_on_core,
                                         (cores[xi % len(cores)], xi))
                        for xi in range(k)]
                return _subset_phase(k, bound, (row.get() for row in rows),
                                     field, partial(pool.starmap,
                                                    chunksize=1))
        rows = [_pair_by_cost(*rows_plan, xi) for xi in range(k)]
        return _subset_phase(k, bound, rows, field, starmap)


def _usable_cores() -> list:
    """The cores this process may run on, or one None per CPU where the
    platform has no affinity calls."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def _set_plan(plan):
    """Pool initializer: the row plan, inherited by fork, for the row
    tasks of this worker."""
    global _PLAN
    _PLAN = plan


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


def _pair_row_on_core(core, xi):
    """Pool task: source row xi of the inherited plan, its worker first
    moved to the given core (rows go round-robin over the usable
    cores)."""
    _move_to_core(core)
    return _pair_by_cost(*_PLAN, xi)


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


def sink_distances(instance: PathInstance, costs) -> dict:
    """togo[v]: the least cost of a walk from v to a sink along the pair
    recurrence's edges (tail not a sink, inner vertices non-terminal,
    head not a source); sinks have 0, and a vertex with no such walk has
    no entry.  At a source it is d_i, the least cost of any walk from
    source i, so no walk set costs less than sum(d_i)."""
    preds = {}
    for eid, (u, v) in enumerate(instance.edges):
        if u not in instance.sink_index and v not in instance.source_index:
            preds.setdefault(v, []).append((u, costs[eid]))
    return _backward_costs(instance.sinks, preds)


def _pair_by_cost(plan, assignment, field, fans_by_cost, xi):
    """Walk-table values at the sinks for source row xi: out[j][q-1] sums
    the walks of exact cost q from source xi to sink j, for every q that
    the row's walk in a set of total cost <= plan.bound can have, at the
    plan's costs; fans_by_cost is plan.fans with each fan's edge ids
    replaced by the window of its packed values, which every row shares.

    One walk is extended one edge at a time, q -> q + c(e): the network
    with every cost-c edge implicitly replaced by a unit-cost path of
    length c (first edge carrying the variable, the rest carrying one).
    Layer q reads the cells (q - c, u) of every cost-c fan of tail u: one
    scalar product of the fan's window by the cell gives all of its
    edges' products, one per slot, and each slot is XORed unreduced into
    its head's cell.  Both operands are reduced (< 2^64), so a slot stays
    below 2^127 and never spills into the next one.  Once layer q is
    complete, each of its nonzero cells is reduced once (field.reduce),
    before any later layer reads it; reduction is GF(2)-linear, so this
    equals reducing every product.

    Only cells that can still finish within the bound are computed.  The
    row needs walks of cost at most budget = plan.budgets[xi], and a
    prefix at (q, v) still needs togo(v) more: cell (q, v) is computed
    only when q + togo(v) <= budget, that is, a fan scatters to the
    prefix of its heads with key <= budget - q, and a fan whose first
    head fails is skipped; the row is budget layers deep.  Every cell
    that passes is exact, since it reads only cells (q - c(e), u) that
    pass too (togo(u) <= c(e) + togo(v)), so every slice at or below the
    bound is unchanged.  With a source that reaches no sink the budget
    is -1 and every column is empty.  Rows never read one another, so
    each is computed alone, in any process.
    """
    instance, costs, togo = plan.instance, plan.costs, plan.togo
    budget = plan.budgets[xi]
    pair = [[0] * instance.n for _ in range(budget + 1)]
    for eid in instance.out_edges[instance.sources[xi]]:
        v = instance.edges[eid][1]
        if v not in instance.source_index and v in togo and \
                costs[eid] + togo[v] <= budget:
            pair[costs[eid]][v] ^= assignment[eid]
    reduce = field.reduce
    for q in range(2, budget + 1):
        layer = pair[q]
        cut = budget - q
        for c, fans in fans_by_cost:
            if c >= q:
                break
            prev = pair[q - c]
            for first, u, keys, heads, win in fans:
                if first > cut:
                    break
                a = prev[u]
                if not a:
                    continue
                products = vec_scalar_mul_w(win, a)
                for v in heads[:bisect_right(keys, cut)]:
                    layer[v] ^= products & _SLOT_MASK
                    products >>= SLOT_BITS
        pair[q] = [reduce(x) if x else 0 for x in layer]
    return [[pair[q][y] for q in range(1, budget + 1)]
            for y in instance.sinks]


def _packed_rows(plan, assignment, field):
    """The rows of _pair_by_cost for every source at once, from one
    recurrence in which cell (q, v) holds row r's value in 128-bit slot
    r: a packing plan's serial route.

    A source's out-edges within its own budget write its slot of their
    heads' cells.  Then, layer by layer, each nonzero cell is reduced
    once (vec_reduce, all k slots) and windowed once, and for each
    out-edge e = (u, v) in plan.tails[u] one scalar product of that
    window by e's value gives e's product for every row; the k-slot
    product goes unreduced into cell (q + c(e), v).  Both operands are reduced, so no slot spills
    into the next one.  Cells are pruned as in _pair_by_cost, against
    the deepest budget top = max(plan.budgets): cell (q, v) is written
    only when q + togo(v) <= top, so a cell's out-edges are read up to
    the first with reach > top - q.  Each row's column is then cut to
    that row's own budget: every cell a row's column reads within its
    budget is exact, here as in _pair_by_cost (a cell kept at the row's
    budget is kept at top, and a cell kept at top reads only kept
    cells), so the rows are bit-identical to _pair_by_cost's.
    """
    instance, costs, togo = plan.instance, plan.costs, plan.togo
    k, budgets, tails = instance.k, plan.budgets, plan.tails
    top = max(budgets)
    pair = [[0] * instance.n for _ in range(top + 1)]
    for r, x in enumerate(instance.sources):
        for eid in instance.out_edges[x]:
            v = instance.edges[eid][1]
            if v not in instance.source_index and v in togo and \
                    costs[eid] + togo[v] <= budgets[r]:
                pair[costs[eid]][v] ^= assignment[eid] << (SLOT_BITS * r)
    reduce, window, mul = vec_reduce, vec_window, vec_scalar_mul_w
    for q in range(1, top + 1):
        layer = pair[q]
        cut = top - q
        for u, cell in enumerate(layer):
            if not cell:
                continue
            layer[u] = cell = reduce(cell, k, field)
            out = tails[u]
            if not out or out[0][0] > cut or not cell:
                continue
            win = window(cell)
            for reach, c, v, eid in out:
                if reach > cut:
                    break
                pair[q + c][v] ^= mul(win, assignment[eid])
    rows = []
    for r, budget in enumerate(budgets):
        shift = SLOT_BITS * r
        rows.append([[pair[q][y] >> shift & _SLOT_MASK
                      for q in range(1, budget + 1)]
                     for y in instance.sinks])
    return rows


def _subset_phase(k, bound, rows, field, mapper):
    """Subset recurrence over sink masks, index = exact length or cost.

    rows[i][j][q-1] is the walk-table value for walks of measure q from
    source i to sink j, read as zero past row i's depth (at most bound).
    The table for mask B peels source |B|-1 (0-based) against each sink j
    in B: one (B, j) term (_subset_term) multiplies the table of B - {j}
    by the column rows[|B|-1][j].  Masks of one popcount read only the
    level below, so the phase runs level by level: mapper (a pool's
    starmap, or itertools.starmap inline) computes the level's terms, and
    each mask XORs its terms and is reduced once.  Level t reads row t-1
    only, so rows is read in order, one row per level (a list, or a
    generator that waits for each of the pool's rows).  Level 1 needs no
    product: the table of {j} is row 0's column j itself, packed one
    slot up, and its entries are reduced already.  Returns the full
    slice list for the Y mask, indices 0..bound.
    """
    size = bound + 1
    tables = [0] * (1 << k)
    tables[0] = 1  # slot 0 holds field one: empty set at index 0
    levels = [[] for _ in range(k)]
    for mask in range(1, 1 << k):
        levels[bin(mask).count("1") - 1].append(mask)
    rows = iter(rows)
    for j, column in enumerate(next(rows, ())):
        for q, a in enumerate(column, 1):
            tables[1 << j] |= a << (SLOT_BITS * q)
    for row, level in zip(rows, levels[1:]):
        owners, terms = [], []
        for mask in level:
            for j, column in enumerate(row):
                if mask >> j & 1 and tables[mask ^ (1 << j)] and any(column):
                    owners.append(mask)
                    terms.append((tables[mask ^ (1 << j)], column, size))
        for mask, term in zip(owners, mapper(_subset_term, terms)):
            tables[mask] ^= term
        for mask in level:
            if tables[mask]:
                tables[mask] = vec_reduce(tables[mask], size, field)
    return vec_unpack(tables[-1], size)


def _subset_term(prev, column, size):
    """One (mask, sink) term of the subset phase, unreduced: the sum over
    q of column[q-1] times the packed table prev shifted up q slots, cut
    to `size` slots.  A shift by q needs only the low size - q slots of
    prev; its window is rebuilt from just those slots whenever that count
    halves."""
    acc = 0
    win = None
    for q, a in enumerate(column, 1):
        if not a:
            continue
        need = size - q  # slots of prev that land at or below bound
        if win is None or 2 * need <= slots:
            slots = need
            win = vec_window(prev & ((1 << (SLOT_BITS * need)) - 1))
        acc ^= vec_scalar_mul_w(win, a) << (SLOT_BITS * q)
    return acc & ((1 << (SLOT_BITS * size)) - 1)


def eval_length_bounded_seq(plan: TablePlan, assignment, field: GF2Field,
                            parallelism: int = 1) -> int:
    """Value of the length-bounded walk polynomial at a unit-cost plan:
    the XOR of its slices k..bound, the source rows across `parallelism`
    processes."""
    acc = 0
    for value in plan.slices(assignment, field, parallelism)[plan.instance.k:]:
        acc ^= value
    return acc


# ---------------------------------------------------------------------------
# Combined-state scan engine
# ---------------------------------------------------------------------------

def _state_moves(instance: PathInstance, state):
    """Moves out of scan state (B, z) as (edge id, next state, slot)
    triples, slot the edge's index in instance.out_edges[z].

    Walks are built in source order, and a walk passes only through
    non-terminals: an edge into a non-terminal extends it, an edge into an
    unfinished sink finishes it and starts the next source's walk, and
    every other edge is no move.  The next state is None when the edge
    finishes the last walk.
    """
    bmask, z = state
    moves = []
    for slot, eid in enumerate(instance.out_edges[z]):
        w = instance.edges[eid][1]
        if not instance.is_terminal(w):
            moves.append((eid, (bmask, w), slot))
            continue
        j = instance.sink_index.get(w)
        if j is None or bmask & (1 << j):
            continue
        b2 = bmask | (1 << j)
        moves.append((eid, None if b2 == (1 << instance.k) - 1 else
                      (b2, instance.sources[bin(bmask).count("1") + 1]),
                      slot))
    return moves


class ScanGraph:
    """The scan engine's state graph for one instance and one cost vector,
    with the exact cost still to go from every state.

    One forward pass collects the states (finished-sinks mask, position)
    reachable from the start (0, first source), at most 2^k * n of them,
    with their moves from _state_moves.  One backward pass from the
    finished state, a bucket queue over the integer costs (Dial), gives
    togo[state]: the least cost of moves that finishes every remaining
    walk.  A state that cannot finish has no entry, and no move into it
    is kept.  moves[state] lists (edge id, cost, next state, reach, slot)
    in increasing reach, where reach = cost + togo[next state] (just the
    cost when the move finishes the last walk) and slot is the edge's
    index among its tail's out-edges (its slot in the scan's fan at that
    position), so a reader with a cut stops at the first move past it.
    The first move's reach is togo[state].  floor = togo[start], or None
    when no walk set exists at all.  The memory ceiling is checked against
    the forward pass's states and moves as they are collected, one cell
    per state and _MOVE_CELLS per move (the build peaks at 270-340 bytes
    per move, states included, tracemalloc): the predecessor lists go
    before the sorted moves are built, and each state's forward moves as
    its sorted ones come.  cells charges the finished graph alike.
    """

    def __init__(self, instance: PathInstance, costs):
        self.instance = instance
        self.start = (0, instance.sources[0])
        succ = {self.start: _state_moves(instance, self.start)}
        stack = [self.start]
        cells = 1 + _MOVE_CELLS * len(succ[self.start])
        most = DEFAULT_MEMORY_LIMIT // _CELL_BYTES
        while stack:
            for _, key, _ in succ[stack.pop()]:
                if key is not None and key not in succ:
                    succ[key] = moves = _state_moves(instance, key)
                    stack.append(key)
                    cells += 1 + _MOVE_CELLS * len(moves)
                    if cells > most:  # raise before the pass outgrows it
                        _check_budget(cells)
        _check_budget(cells)  # the graph's one charge when it fits
        preds = {}
        for state, moves in succ.items():
            for eid, key, _ in moves:
                preds.setdefault(key, []).append((state, costs[eid]))
        togo = _backward_costs([None], preds)
        del preds
        self.moves = {}
        while succ:  # each state's forward moves go as its sorted ones come
            state, moves = succ.popitem()
            if state in togo:
                self.moves[state] = sorted(
                    ((eid, costs[eid], key, costs[eid] + togo[key], slot)
                     for eid, key, slot in moves if key in togo),
                    key=lambda move: move[3])
        del togo[None]
        self.togo = togo
        self.floor = togo.get(self.start)
        self.cells = len(self.moves) + _MOVE_CELLS * sum(
            map(len, self.moves.values()))


def scan_slices(graph: ScanGraph, assignment, field: GF2Field, cap: int):
    """Yield (d, value) for each nonzero exact-cost slice d <= cap, in
    increasing d, by a single walk-at-a-time pass over the graph's states
    at the graph's costs.

    State (B, z): sinks in B are finished, the current walk stands at z
    (the next unstarted source when between walks).  Pending states are
    grouped by the key (d + togo(state), d) and the least key is popped
    first (A* order, Hart, Nilsson and Raphael 1968): a move of cost c
    goes to group (d + reach, d + c), and a move that finishes the last
    walk to (d', d') with d' = d + c, the group of the walk sets of cost
    d'.  togo is consistent, togo(u) <= c(e) + togo(v) on every move, and
    costs are >= 1, so every predecessor of a state has a smaller key:
    no larger in its first part, and with a smaller d on a tie.  So each
    state's value is complete when its group is popped, no group is
    filled after it is popped, and slices are yielded in increasing d.
    A scan that stops at its first nonzero slice d* has expanded only the
    states with d + togo <= d*.  The keys are popped from a heap, so a
    scan visits only the costs that some state reaches, however sparse
    and large the graph's costs are.  A move out of a state at cost d is
    skipped when d + reach > cap: no walk set through it finishes within
    the cap, so every walk set of cost <= cap passes only through
    expanded states and the yielded slices are exact; with cap below
    graph.floor nothing is expanded.

    Each state is reduced once, when its group is popped, and a move's
    contribution goes unreduced into its target.  The scan packs the
    values of position z's out-edges one per 128-bit slot (in
    instance.out_edges[z] order), windows that fan the first time a state
    at z is expanded, and makes one scalar product per expanded state:
    each kept move takes its slot of it.  A fan whose slots are all zero
    (every out-edge deleted) is not windowed, and its states make no
    product.  Both operands are field elements (< 2^s, s <= 64), so a
    slot stays below 2^127 and never spills into the next one.  Moves
    come in increasing reach, so each state's scan stops at its first
    move past the cap.  The memory ceiling is checked once per popped
    group against the states still pending (the popped group's and every
    later group's, finished entries included), one cell for each pending
    group, the graph's cells and the fans built so far.
    """
    instance = graph.instance
    _check_assignment(instance, assignment)
    reduce = field.reduce
    moves_of = graph.moves
    fans = {}  # position -> window of its packed out-edge values, or 0
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
            z = state[1]
            win = fans.get(z)
            if win is None:
                packed = 0
                for slot, eid in enumerate(instance.out_edges[z]):
                    packed |= assignment[eid] << (SLOT_BITS * slot)
                win = fans[z] = packed and vec_window(packed)
                fan_cells += _fan_cells(len(instance.out_edges[z]))
            if not win:
                continue  # every out-edge of z carries zero
            products = vec_scalar_mul_w(win, value)
            for _, c, key, reach, slot in moves_of[state]:
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
    """(support, forced): masks of the alive edges that lie on some, and
    on every, walk set of exact cost d built from alive edges only
    (alive[e] is true for a usable edge).

    One forward pass, without field arithmetic, visits the graph's states
    reachable from the start in increasing cost, skipping moves that
    cannot finish by cost d (the bound of scan_slices).  Each pending
    (cost, state) carries two int bitmasks: the edges that some prefix
    reaching it avoids (all m at the start) and those that some prefix
    reaching it uses (none at the start); a move clears its edge's bit in
    the first, sets it in the second and ORs both into its target.  A
    prefix followed by a move that finishes at exactly d is a walk set of
    cost d, and every such set is one: the OR of those moves' used masks
    is the support, and an edge of it whose bit is clear in the OR of
    their avoided masks is forced.  Every monomial of the cost-d slice is
    the product along one such walk set, so zeroing an edge outside the
    support leaves that slice unchanged at every assignment, and zeroing
    a forced one makes it an empty sum.  Each layer is dropped once it is
    expanded.  The memory ceiling is checked once per layer against the
    graph's cells and the pending entries, each charged one cell for its
    dict slot and pair and 1 + m // 540 for each mask (an m-bit int takes
    about 24 + m/7.5 bytes; the pass peaked at 0.5-0.67x of that charge
    on dense costed graphs, tracemalloc, 64-bit CPython 3.11).
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
            for eid, c, key, reach, _ in graph.moves[state]:
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
    """Least exact-cost index with a nonzero slice at the graph's costs,
    scanning at most `cap`.

    Callers cap the scan at most at the instance's simple-set cost bound
    at the graph's costs (PathInstance.simple_cost_cap): at any positive
    integer costs, the least nonzero slice, when one exists at all, is
    certified by a set of k vertex-disjoint simple paths, whose cost that
    bound dominates.  Returns (p, value) or None; with cap below
    graph.floor it returns None without expanding a state.
    """
    return next(scan_slices(graph, assignment, field, cap), None)
