"""Dynamic-programming evaluation of the cancellation polynomials.

Given an assignment of field values to edge variables, exact-measure
slice values are computed: for each total cost p, the field value of the
sum over proper walk sets of total cost exactly p.  Length is the
unit-cost case, and the cumulative XOR of the slices up to a bound l is
the length-bounded walk polynomial.  Two engines compute them:

* the table engine (TablePlan), the length tables at unit costs that
  decide reads: one pipeline that produces the source rows' tables by
  the pair recurrence (_rows, one walk extended one edge at a time, q ->
  q + 1) and combines the rows by the subset recurrence over sink masks
  (_subset_phase).  A TablePlan holds what does not depend on the edge
  values and is built once per query, the table engine's counterpart of
  ScanGraph; plan.slices(assignment, field) is one evaluation, the plain
  list of slice values up to the plan's bound l.  The rows come from one
  push pass over each vertex's out-edges in increasing reach
  (plan.tails), that holds two layers at a time: every nonzero cell is
  reduced once, when its layer is complete, and pushed along its
  out-edges into the next layer, unreduced.  The pass takes one of two
  routes, which give bit-identical rows.  Packed, all k rows run as one
  recurrence whose cell (q, v) holds row r's value in slot r: each cell
  is windowed once, and one scalar product per out-edge gives that
  edge's product for every row, the way the paper evaluates its rows
  side by side.  Per row, each vertex's out-edge values are packed one
  per slot and windowed once per evaluation, so one scalar product per
  cell gives every out-edge's product.  A plan packs when the vertices
  with out-edges have fewer than k each on average (_packs), and then
  its serial route is the packed pass; the pool always maps per-row
  passes.  sink_distances gives togo(v), the least length from v to a
  sink along the recurrence's edges, and d_i = togo(source i) (one
  backward bucket-queue pass, over the edges that the scan graph's
  per-sink distances read too).  A walk set of total length <= l holds
  its source-r walk at budget_r = l - sum_{i != r} d_i edges at most,
  and a prefix of that walk at (q, v) still needs at least togo(v): so
  row r is budget_r layers deep and computes cell (q, v) only when q +
  togo(v) <= budget_r, which changes no slice at or below the bound
  (_rows).  By the same count, a subset table of sources 0..t-1 holds
  only the W = l - sum(d_i) + 1 lengths from sum_{i<t} d_i, its slack
  window (_subset_phase), and a plan with no walk set within l runs no
  row.

* the scan engine (scan_slices): one walk-at-a-time pass over a combined
  state space (finished-sinks mask B, current walk position z), one
  integer B * n + z per state and one field element per (cost, state),
  popped best first: in increasing cost plus cost to go.
  ScanGraph is that state graph for one cost vector, built on demand: a
  dict from state to moves.  Its togo, the least cost that finishes
  every remaining walk (the exact lower bound of A*), comes in closed
  form from k per-sink vertex distances and a DP over sink masks, which
  are all a new graph holds; a state's moves are built by the one
  transition rule (ScanGraph.__missing__) the first time a reader reads
  them, so a scan materializes only the states it expands.  Every scan
  skips a move out of a state at cost d into a state with d + c(e) +
  togo > cap.  That is exact: a walk set of cost <= cap has, at each of
  its states, a prefix cost d and a remainder of cost at least togo, so
  it passes only through moves that are kept, and a skipped move carries
  no walk set the scan could yield.  Each state's
  moves are sorted by c(e) + togo, so a scan stops at the first one past
  its cap.  Moves into states that cannot finish at all are dropped.
  The scan takes the per-row table route's fan layout: the values of a
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
checks the other in the tests: at unit costs directly, and at costs
through oracle.subdivide_costs, which replaces each cost-c edge by a
path of c unit edges that the table engine evaluates.  The table
engine's data parallelism is over source rows, and then over the sink
masks of one popcount: walks from different sources never meet in the
pair recurrence, and a level of the subset recurrence reads only the
level below.  So the pipeline maps the rows, then the subset levels one
at a time, either in this process (one packed pass for all rows on a
packing plan) or over one pool of worker processes, with bit-identical
results.

Layer tables and scan fans live in packed-vector form (see field.vec_*)
so that an update is a handful of big-int operations instead of a Python
loop per cell.
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
_TAIL_CELLS = 2  # cells charged per TablePlan.tails entry (~106 bytes)
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
    edge and 10 for the window.  A window of D slots takes about 450 +
    240 D bytes, and building the plan's tail lists and the sink
    distances holds about 140 bytes more per edge (tracemalloc, 64-bit
    CPython 3.11); the tail lists themselves are charged apart
    (_TAIL_CELLS)."""
    return _FAN_CELLS * (slots + 2)


# ---------------------------------------------------------------------------
# Table engine (pair tables + subset table)
# ---------------------------------------------------------------------------

def _packs(k: int, widths) -> bool:
    """Whether a plan's serial route is the packed row pass, from its k
    and the widths of its fans, the out-edge counts of the vertices that
    have any: a mean fan width below k, so never at k = 1.

    Per cell, the packed pass makes one product per out-edge and the
    per-row route one per row, and a product costs about the same
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
    maps the per-row task, against the packed pass (ROADMAP, "Measured
    and kept": the packing rule at k).
    """
    return sum(widths) < k * len(widths)


class TablePlan:
    """The table engine's plan for one instance and length bound, at unit
    costs: everything an evaluation reads that does not depend on the
    edge values, built once per query.

    togo is sink_distances, and floor = sum of the sources' d_i =
    togo(source i), or None when some source reaches no sink (then no
    walk set exists at all).  Row i's walk in a set of total length <=
    bound has at most budgets[i] = bound - floor + d_i edges, since every
    other walk has at least its own d (-1 when floor is None).  tails[u]
    lists the edges a row relaxes out of vertex u (u non-terminal, head
    not a source and reaching a sink, so it is empty at a terminal u) as
    (reach, head, edge id) in increasing reach = 1 + togo(head), so a
    reader with a cut stops at the first edge past it.

    packs (_packs, from k and the out-edge counts in tails) says whether
    the serial route is the packed row pass or one per-row pass per row
    (both _rows); the pool always maps per-row passes.

    The memory ceiling is charged pair_cells, subset_cells and fan_cells
    (_fan_cells of each vertex's out-edges, windowed on the per-row
    route, and _TAIL_CELLS per entry of tails), and checked once per
    evaluation, before any row runs.  pair_cells is, per row, k sink
    columns of budget cells, and one cell per non-source vertex for the
    two layers a pass holds (two slots, a reduced and an unreduced
    product: at most 96 bytes per row, about half that packed).
    subset_cells is (1 << k)(bound + 1), though the subset tables hold
    W = bound - floor + 1 slots each: criterion 7 asserts that the charge
    doubles per unit of k on instances whose floors differ, which a
    charge of (1 << k) W would not, so it over-counts floor slots per
    mask.  Dense and layered plans peaked at 0.14-0.61 of their whole
    charge in one build and evaluation (tracemalloc after emptying the
    free lists, 64-bit CPython 3.11).
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
        self.tails = tails = [[] for _ in range(instance.n)]
        for eid, (u, v) in enumerate(zip(instance.tails, instance.heads)):
            if not instance.is_terminal(u) and \
                    v not in instance.source_index and v in togo:
                tails[u].append((1 + togo[v], v, eid))
        for out in tails:
            out.sort()
        widths = [len(out) for out in tails if out]
        self.packs = _packs(k, widths)
        self.pair_cells = sum(instance.n - k + k * max(budget, 0)
                              for budget in self.budgets)
        self.subset_cells = (1 << k) * (bound + 1)
        self.fan_cells = sum(map(_fan_cells, widths)) + \
            _TAIL_CELLS * sum(widths)

    def slices(self, assignment, field: GF2Field,
               parallelism: int = 1) -> list[int]:
        """One evaluation: the slice values 0..bound at the given edge
        values.

        On a packing plan (self.packs) the serial route is one packed
        _rows pass over all k rows.  On any other plan, and on the pool,
        each vertex's out-edge values are packed one per 128-bit slot in
        tails order and windowed once (vec_window), and each row is one
        per-row _rows pass.  With parallelism > 1, k > 1 and two or more
        usable cores, one fork pool of min(parallelism, k, usable cores)
        workers serves the whole evaluation.  Each worker starts in the
        pool's initializer: it inherits the windowed plan when it forks,
        so no task carries it, and moves once to a core of its own.  All
        source rows are queued first (pool.imap, in order, to whichever
        worker is free), then each level of the subset phase as soon as
        the row it reads is in, one task at a time, so a level's terms
        can run while a later row is still out.  Otherwise both phases
        map inline, in this process.  Both row routes give the same rows
        and the subset phase is one code, so the result is bit-identical
        for every parallelism degree.  A plan whose floor is None or
        above its bound answers all zeros after the budget check, before
        any row runs or any pool starts.  multiprocessing is imported
        here, at the first evaluation that can start a pool, so a process
        that only evaluates serially never loads it.
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
        for out in self.tails:
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
    """Walk-table values at the sinks for the source rows listed in rows,
    from one recurrence in which cell (q, v) holds row rows[i]'s value in
    128-bit slot i: out[i][j][q-1] sums the walks of exactly q edges from
    source rows[i] to sink j, for every q that the row's walk in a set of
    total length <= plan.bound can have.

    One walk is extended one edge at a time, q -> q + 1, so the pass holds
    only layers q and q + 1 and each sink's column.  A source's out-edges
    within its own budget write its slot of their heads' cells in layer
    1.  Then, layer by layer, each nonzero cell (q, u) is reduced once,
    its value at a sink joins that sink's column, and it is pushed along
    the out-edges in plan.tails[u], each product going unreduced into
    cell (q + 1, v); reduction is GF(2)-linear, so this equals reducing
    every product.  Both operands of a product are reduced (< 2^64), so a
    slot stays below 2^127 and never spills into the next one.  Two
    routes give the products:
    * packed (windows None, any number of rows): the cell is reduced by
      vec_reduce and windowed, and one scalar product of that window by
      e's value gives e's product for every row;
    * per row (one row): the cell is reduced by GF2Field.reduce, and
      windows[u] packs the values of u's tails one per slot, in tails
      order, so one scalar product of it by the cell gives every
      out-edge's product, each taking its slot, the way scan_slices
      splits a state's product.

    Row r needs walks of at most budget_r = plan.budgets[r] edges, and a
    prefix at (q, v) still needs togo(v) more.  The pass runs to the
    deepest budget top of its rows and writes cell (q, v) only when q +
    togo(v) <= top, so a cell's out-edges are read up to the first with
    reach > top - q; each row's column is then cut to its own budget.  A
    cell kept at the row's budget is kept at top and reads only kept
    cells (togo(u) <= 1 + togo(v)), so both routes give bit-identical,
    unpruned values at or below the bound.  Only a plan whose floor is
    at most its bound runs rows, so every budget is at least 1.  Rows
    never read one another, so each can be computed alone, in any
    process.
    """
    instance, togo, tails = plan.instance, plan.togo, plan.tails
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
    reduce, vreduce = field.reduce, vec_reduce
    window, mul = vec_window, vec_scalar_mul_w
    for q in range(1, top + 1):
        after = [0] * instance.n
        cut = top - q
        for u, cell in enumerate(layer):
            if not cell:
                continue
            if windows is None:
                layer[u] = cell = vreduce(cell, width, field)
            else:
                layer[u] = cell = reduce(cell)
            out = tails[u]
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
    """Subset recurrence over sink masks, index = exact length, in the
    plan's slack window of W = bound - floor + 1 slots.

    rows[i][j][q-1] is the walk-table value for walks of q edges from
    source i to sink j, for q up to row i's budget, bound - floor + d_i;
    no walk from source i is shorter than d_i, so only its last W entries,
    column[d_i - 1 : d_i - 1 + W], can be nonzero.  The table for mask B
    peels source |B|-1 (0-based) against each sink j in B: one (B, j) term
    (_subset_term) multiplies the table of B - {j} by that window of the
    column rows[|B|-1][j].  So a mask of popcount t needs only the lengths
    from sum_{i<t} d_i to bound - sum_{i>=t} d_i, since the walks still
    to come add at least sum_{i>=t} d_i: W slots, slot s for length
    sum_{i<t} d_i + s, and a term's shifts start at 0.  Masks of one
    popcount read only the level below, so the phase runs level by level:
    mapper (a pool's starmap, or itertools.starmap inline) computes the
    level's terms, and each mask XORs its terms and is reduced once.
    Level t reads row t-1 only, so rows is read in order, one row per
    level (a list, or a pool.imap, which waits for each of the pool's
    rows).  Level 1 needs no product: the table of {j}
    is the window of row 0's column j itself, and its entries are reduced
    already.  Returns the slices 0..bound: floor zeros, then the Y mask's
    W slots.  The plan's floor must be at most its bound.
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
    """The scan engine's state graph for one instance and one cost vector,
    with the exact cost still to go from every state, built on demand: a
    dict from each state read so far to its moves.

    A state is the integer B * n + z: the walks to the sinks in mask B are
    finished, and the current walk stands at z (the next unstarted source,
    sources[|B|], between walks); the start is sources[0].  togo(state) is
    the least cost of moves that finishes every remaining walk, in closed
    form.  dist_j(v) is the least cost of a walk from v to sink j through
    non-terminals: one _backward_costs pass per sink, over the edges whose
    tail is not a sink and whose head is not a source.  rest(M) is the
    least cost of the walks of sources |M|..k-1 once the sinks in M are
    finished, a DP over sink masks: rest(full) = 0, and rest(M) = min over
    j not in M of dist_j(sources[|M|]) + rest(M | j).  Then togo(B, z) =
    min over j not in B of dist_j(z) + rest(B | j), None when no walk set
    finishes from there, and floor = togo(start) = rest(0), None when no
    walk set exists at all.

    graph[state] lists (edge id, cost, next state, reach, slot) in
    increasing reach, where reach = cost + togo(next state) (just the
    cost when the move finishes the last walk) and slot is the edge's
    index among its tail's out-edges (its slot in the scan's fan at that
    position), so a reader with a cut stops at the first move past it.
    Walks are built in source order and pass only through non-terminals:
    an edge into a non-terminal extends the walk, one into an unfinished
    sink finishes it and starts the next source's walk (next state None
    when it finishes the last), every other edge is no move, and a move
    into a state that cannot finish is dropped.  So the first move's
    reach is togo(state).  A state's moves are built by __missing__, the
    one transition rule, the first time a reader reads them, so
    scan_slices and slice_support materialize only the states they
    expand, not the whole reachable space of up to 2^k * n states.  Only
    states that can finish are read: the start when the floor is not
    None, and the targets of moves.

    The memory ceiling is charged the distance tables before they are
    built, one cell per edge (the predecessor lists) and per two (sink,
    vertex) pairs or sink masks; then one cell per state built and
    _MOVE_CELLS per move.  cells is that running charge, which every
    reader adds to its own, and it is checked as soon as it passes the
    ceiling.  Fully materialized graphs took 107-149 bytes per move,
    distance tables and states included, 0.44-0.64 of that charge
    (complete bipartite k = 8-12 and the dense costed instances of the
    scan's ceiling tests, tracemalloc after emptying the free lists,
    64-bit CPython 3.11).
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
        if self.cells * _CELL_BYTES > DEFAULT_MEMORY_LIMIT:
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
    """Yield (d, value) for each nonzero exact-cost slice d <= cap, in
    increasing d, by a single walk-at-a-time pass over the graph's states
    at the graph's costs.

    State B * n + z: sinks in B are finished, the current walk stands at
    z = state % n (the next unstarted source when between walks), as in
    ScanGraph.  Pending states are
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
    move past the cap.  A state's moves are read from graph[state], which
    builds them the first time any reader expands that state, so a scan
    materializes only the states it expands.  The memory ceiling is
    checked once per popped group against the states still pending (the
    popped group's and every later group's, finished entries included),
    one cell for each pending group, the graph's cells so far (its
    distance tables and every state materialized yet) and the fans built
    so far; the graph also checks its own charge as soon as that passes
    the ceiling, in the middle of a group.
    """
    instance = graph.instance
    n = instance.n
    _check_assignment(instance, assignment)
    reduce = field.reduce
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
            z = state % n
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
    """(support, forced): masks of the alive edges that lie on some, and
    on every, walk set of exact cost d built from alive edges only
    (alive[e] is true for a usable edge).

    One forward pass, without field arithmetic, visits the graph's states
    reachable from the start in increasing cost, skipping moves that
    cannot finish by cost d (the bound of scan_slices), and reads each
    state's moves from graph[state], which materializes a state the first
    time any reader expands it.  Each pending
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
    graph's cells so far (as in scan_slices) and the pending entries, each
    charged one cell for its
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
