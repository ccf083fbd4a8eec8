"""Dynamic-programming evaluation of the cancellation polynomials.

Given an assignment of field values to edge variables, exact-measure
slice values are computed: for each total cost p, the field value of the
sum over proper walk sets of total cost exactly p.  Length is the
unit-cost case, and the cumulative XOR of the slices up to a bound l is
the length-bounded walk polynomial.  Two engines compute them:

* the table engine: the cost-indexed pair recurrence (_pair_by_cost, one
  walk extended one edge at a time, q -> q + c(e)) followed by the subset
  recurrence over sink masks.  Edge costs are handled implicitly instead
  of materializing the subdivided network (an edge of cost c replaced by
  a unit-cost path of length c); subdivide_costs builds the explicit
  subdivision as a test oracle for this equivalence.

* the scan engine (scan_slices): one walk-at-a-time pass over a combined
  state space (finished-sinks mask, current walk position), exact cost
  as the layer index and an optional second cost (isolation weights) as
  a packed vector per state.  Its readers stop at the first nonzero
  slice, which serves minimum-cost queries and edge-essentiality tests
  without materializing full tables.

The doubling recurrence (concatenate half-length walk tables, optionally
across forked worker processes) is the one other route to the length
slices; it serves as the independent cross-check of the table engine and
as the data-parallel evaluation.  All routes produce bit-identical
values.

Layer tables and scan states live in packed-vector form (see field.vec_*)
so that an update is a handful of big-int operations instead of a Python
loop per cell.
"""

from __future__ import annotations

import multiprocessing
import sys

from .field import (
    GF2Field,
    SLOT_BITS,
    vec_pack,
    vec_reduce,
    vec_scalar_mul_w,
    vec_unpack,
    vec_window,
)
from .network import PathInstance

DEFAULT_MEMORY_LIMIT = 2 << 30  # bytes, process-wide default ceiling
_CELL_BYTES = 96  # rough per-table-cell footprint used for budget checks


class BudgetError(RuntimeError):
    """A table would exceed the configured memory ceiling."""


def set_default_memory_limit(limit_bytes: int):
    """Process-wide table ceiling used when calls pass no explicit limit."""
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


def _check_budget(cells: int, memory_limit: int):
    if cells * _CELL_BYTES > memory_limit:
        raise BudgetError(
            f"{cells} table cells (~{cells * _CELL_BYTES >> 20} MiB) exceed "
            f"the {memory_limit >> 20} MiB ceiling")


def subset_table_cells(k: int, bound: int) -> int:
    """Exact subset-table size: one cell per (B subset of Y, index 0..bound)."""
    return (1 << k) * (bound + 1)


# ---------------------------------------------------------------------------
# Length-bounded evaluation (pair tables + subset table)
# ---------------------------------------------------------------------------

# Doubling-layer state shared with fork()ed workers: children inherit the
# completed layers through copy-on-write memory, so wave tasks carry only
# (layer, row range) and results are the only bytes shipped back.
_WAVE_STATE: dict = {}


def _wave_task(args):
    """Rows [lo, hi) of doubling layer q: C[x] = sum_y A[x][y] * B[y],
    A the ceil(q/2) layer, B the floor(q/2) layer, y over non-terminals."""
    q, lo, hi = args
    st = _WAVE_STATE
    field = st["field"]
    n = st["n"]
    layers = st["layers"]
    a_layer = layers[(q + 1) // 2]
    b_layer = layers[q // 2]
    windows = [(y, vec_window(b_layer[y])) for y in st["mids"] if b_layer[y]]
    out = []
    for x in st["rows"][lo:hi]:
        elems = vec_unpack(a_layer[x], n)
        acc = 0
        for y, win in windows:
            v = elems[y]
            if v:
                acc ^= vec_scalar_mul_w(win, v)
        out.append((x, vec_reduce(acc, n, field) if acc else 0))
    return q, out


class LengthEvaluation:
    """One evaluation of the length-slice tables for (instance, l, f).

    doubling=False follows the sequential pair recurrence at unit costs
    (start vertices restricted to X); doubling=True follows the half-length
    concatenation recurrence over all start vertices, split row-wise across
    `parallelism` worker processes.  The two agree exactly, and the result
    is bit-identical for every parallelism degree: layer cells only ever
    combine by XOR, which is order-independent, and the row order is fixed.
    """

    def __init__(self, instance: PathInstance, l: int, assignment,
                 field: GF2Field, doubling: bool = False,
                 parallelism: int = 1,
                 memory_limit: int | None = None):
        if not 1 <= l <= instance.k * (instance.n - 1):
            raise ValueError(
                f"length bound {l} outside [1, {instance.k * (instance.n - 1)}]")
        _check_assignment(instance, assignment)
        self.instance = instance
        self.l = l
        self.field = field
        # Deepest pair layer the subset phase can consume: the other k-1
        # walks take at least one edge each.
        self.l_pair = max(l - instance.k + 1, 0)
        self.pair_cells = self.l_pair * instance.n * (
            instance.n if doubling else instance.k)
        self.subset_cells = subset_table_cells(instance.k, l)
        _check_budget(self.pair_cells + self.subset_cells,
                      memory_limit if memory_limit is not None
                      else DEFAULT_MEMORY_LIMIT)
        if doubling:
            pair_sink_vals = self._pair_doubling(assignment, parallelism)
        else:
            pair_sink_vals = _pair_by_cost(instance, self.l_pair, assignment,
                                           field, [1] * instance.m)
        self.slices = _subset_phase(instance, l, self.l_pair,
                                    pair_sink_vals, field)

    def value(self) -> int:
        """Cumulative value: XOR of slices k..l."""
        acc = 0
        for p in range(self.instance.k, self.l + 1):
            acc ^= self.slices[p]
        return acc

    # -- doubling pair recurrence ---------------------------------------

    def _pair_doubling(self, f, parallelism):
        inst = self.instance
        field = self.field
        n = inst.n
        sink_set = set(inst.sinks)
        source_set = set(inst.sources)
        rows = [x for x in range(n) if x not in sink_set]
        mids = [y for y in range(n) if not inst.is_terminal(y)]
        base_rows = [[0] * n for _ in range(n)]
        for eid, (u, v) in enumerate(inst.edges):
            if u not in sink_set and v not in source_set:
                base_rows[u][v] ^= f[eid]
        layers = [None, [vec_pack(base_rows[x]) for x in range(n)]]
        layers += [None] * max(self.l_pair - 1, 0)
        degree = max(1, parallelism)
        can_fork = sys.platform != "win32" and degree > 1
        state = {"field": field, "n": n, "layers": layers, "mids": mids,
                 "rows": rows}
        global _WAVE_STATE
        _WAVE_STATE = state
        # Wave d holds layers (2^(d-1), 2^d], whose halves all lie in
        # earlier waves: every layer of a wave is independent, so one
        # dispatch covers the whole wave, and workers forked at the wave
        # boundary inherit the finished layers without any shipping.
        # Forking costs tens of milliseconds, so waves below a work
        # threshold (slot-multiplications) run inline; the value is
        # unaffected either way.
        pool_threshold = 2_000_000
        lo = 1
        while lo < self.l_pair:
            hi = min(2 * lo, self.l_pair)
            wave = list(range(lo + 1, hi + 1))
            tasks = []
            splits = max(1, (degree + len(wave) - 1) // len(wave))
            bounds = [len(rows) * i // splits for i in range(splits + 1)]
            for q in wave:
                for ci in range(splits):
                    if bounds[ci] < bounds[ci + 1]:
                        tasks.append((q, bounds[ci], bounds[ci + 1]))
            wave_work = len(wave) * len(rows) * len(mids) * n
            if can_fork and len(tasks) > 1 and wave_work >= pool_threshold:
                ctx = multiprocessing.get_context("fork")
                with ctx.Pool(processes=min(degree, len(tasks))) as pool:
                    chunk = max(1, len(tasks) // (4 * degree))
                    results = list(pool.imap_unordered(_wave_task, tasks,
                                                       chunksize=chunk))
            else:
                results = [_wave_task(t) for t in tasks]
            for q, part in results:
                if layers[q] is None:
                    layers[q] = [0] * n
                for x, row in part:
                    layers[q][x] = row
            lo = hi
        sinks = inst.sinks
        k = inst.k
        out = []
        for q in range(1, self.l_pair + 1):
            layer = layers[q]
            vals = []
            for xi in range(k):
                elems = vec_unpack(layer[inst.sources[xi]], n)
                vals.append([elems[y] for y in sinks])
            out.append(vals)
        return out


def _pair_by_cost(instance, depth, assignment, field, costs):
    """Walk-table values at the sinks: out[q-1][i][j] sums the walks of
    exact cost q (1..depth) from source i to sink j.

    One walk is extended one edge at a time, q -> q + c(e): the network
    with every cost-c edge implicitly replaced by a unit-cost path of
    length c (first edge carrying the variable, the rest carrying one).
    Relaxable edges (tail non-terminal, head not a source) are grouped by
    cost; within a group, source rows run outer and edges inner.
    """
    n, k = instance.n, instance.k
    source_index = instance.source_index
    groups = {}
    for eid, (u, v) in enumerate(instance.edges):
        if not instance.is_terminal(u) and v not in source_index:
            groups.setdefault(costs[eid], []).append((u, v, assignment[eid]))
    groups = sorted(groups.items())
    pair = [[[0] * n for _ in range(k)] for _ in range(depth + 1)]
    for xi, x in enumerate(instance.sources):
        for eid in instance.out_edges[x]:
            v = instance.edges[eid][1]
            if v not in source_index and costs[eid] <= depth:
                pair[costs[eid]][xi][v] ^= assignment[eid]
    mul = field.mul
    for q in range(2, depth + 1):
        layer = pair[q]
        for c, relax in groups:
            if c >= q:
                break
            src = pair[q - c]
            for xi in range(k):
                prow = src[xi]
                crow = layer[xi]
                for u, v, fe in relax:
                    a = prow[u]
                    if a:
                        crow[v] ^= mul(a, fe)
    sinks = instance.sinks
    return [[[pair[q][xi][y] for y in sinks] for xi in range(k)]
            for q in range(1, depth + 1)]


def _subset_phase(instance, bound, deepest_pair, pair_sink_vals, field):
    """Subset recurrence over sink masks, index = exact length or cost.

    pair_sink_vals[q-1][i][j] is the walk-table value for walks of measure
    q from source i to sink j.  The table for mask B peels source |B|-1
    (0-based) against each sink in B; vectors over the index dimension are
    packed, so one (B, sink, q) contribution is a scalar product plus a
    slot shift.  Returns the full slice list for the Y mask, indices
    0..bound.
    """
    k = instance.k
    size = bound + 1
    full_mask = (1 << (SLOT_BITS * size)) - 1
    tables = [0] * (1 << k)
    tables[0] = 1  # slot 0 holds field one: empty set at index 0
    for mask in range(1, 1 << k):
        i = bin(mask).count("1") - 1  # 0-based index of the peeled source
        acc = 0
        for j in range(k):
            if not mask & (1 << j):
                continue
            prev = tables[mask ^ (1 << j)]
            if prev == 0:
                continue
            win = vec_window(prev)
            for q in range(1, deepest_pair + 1):
                if q > bound:
                    break
                a = pair_sink_vals[q - 1][i][j]
                if a:
                    acc ^= (vec_scalar_mul_w(win, a) << (SLOT_BITS * q)) \
                        & full_mask
        tables[mask] = vec_reduce(acc, size, field) if acc else 0
    return vec_unpack(tables[(1 << k) - 1], size)


def eval_length_slices(instance: PathInstance, l: int, assignment,
                       field: GF2Field, doubling: bool = False,
                       parallelism: int = 1) -> list[int]:
    """Exact-length slice values for p = 0..l."""
    ev = LengthEvaluation(instance, l, assignment, field,
                          doubling=doubling, parallelism=parallelism)
    return ev.slices


def eval_length_bounded_seq(instance: PathInstance, l: int, assignment,
                            field: GF2Field) -> int:
    """Value of the length-bounded walk polynomial, sequential recurrence."""
    return LengthEvaluation(instance, l, assignment, field).value()


def eval_length_bounded_par(instance: PathInstance, l: int, assignment,
                            field: GF2Field, parallelism: int = 1) -> int:
    """Same value via the doubling recurrence, optionally multi-process."""
    return LengthEvaluation(instance, l, assignment, field, doubling=True,
                            parallelism=parallelism).value()


# ---------------------------------------------------------------------------
# Cost slices (implicit subdivision)
# ---------------------------------------------------------------------------

class CostSlices:
    """Exact-cost slice values, indices 0..u_max.

    The cumulative value at U is the XOR of slices k..U; every monomial
    lives in exactly one exact-cost slice.
    """

    def __init__(self, slices, k):
        self.slices = slices
        self.k = k

    @property
    def u_max(self):
        return len(self.slices) - 1

    def value_at(self, u: int) -> int:
        acc = 0
        for p in range(self.k, min(u, self.u_max) + 1):
            acc ^= self.slices[p]
        return acc

    def first_nonzero(self, limit: int | None = None):
        stop = self.u_max if limit is None else min(limit, self.u_max)
        for p in range(stop + 1):
            if self.slices[p]:
                return p
        return None

    def __eq__(self, other):
        return isinstance(other, CostSlices) and \
            (self.slices, self.k) == (other.slices, other.k)


def eval_cost_slices(instance: PathInstance, u_max: int, assignment,
                     field: GF2Field,
                     memory_limit: int | None = None) -> CostSlices:
    """Exact-cost slices via the cost-indexed pair recurrence + subset
    phase."""
    k = instance.k
    if u_max < k:
        raise ValueError(f"cost bound {u_max} below k = {k}")
    _check_assignment(instance, assignment)
    _check_budget(k * instance.n * (u_max + 1) + subset_table_cells(k, u_max),
                  memory_limit if memory_limit is not None
                  else DEFAULT_MEMORY_LIMIT)
    pair_sink_vals = _pair_by_cost(instance, u_max, assignment, field,
                                   instance.cost_list())
    slices = _subset_phase(instance, u_max, u_max, pair_sink_vals, field)
    return CostSlices(slices, k)


def eval_with_edge_removed(instance: PathInstance, removed: int, u_max: int,
                           assignment, field: GF2Field,
                           memory_limit: int | None = None) -> CostSlices:
    """Cost slices of the instance with one edge deleted.

    Deleting an edge equals assigning zero to its variable: every walk set
    through the edge picks up a zero factor, and no other term changes.
    """
    if not 0 <= removed < instance.m:
        raise ValueError(f"unknown edge id {removed}")
    patched = list(assignment)
    patched[removed] = 0
    return eval_cost_slices(instance, u_max, patched, field,
                            memory_limit=memory_limit)


def subdivide_costs(instance: PathInstance):
    """Explicitly replace each cost-c edge by a unit-cost path of length c.

    Returns (unit-cost instance, carry map original edge id -> id of the
    first edge on its replacement path).  Retained as the test oracle for
    the implicit stepping used by eval_cost_slices.
    """
    costs = instance.cost_list()
    edges = []
    carry = {}
    next_vertex = instance.n
    for eid, (u, v) in enumerate(instance.edges):
        c = costs[eid]
        carry[eid] = len(edges)
        chain = [u] + [next_vertex + i for i in range(c - 1)] + [v]
        next_vertex += c - 1
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
    return (
        PathInstance(next_vertex, edges, instance.sources, instance.sinks),
        carry,
    )


def subdivision_assignment(subdivided: PathInstance, carry, assignment):
    """Lift an assignment through subdivide_costs: the first edge of each
    replacement path carries the original value, the rest carry one."""
    lifted = [1] * subdivided.m
    for orig, first in carry.items():
        lifted[first] = assignment[orig]
    return lifted


# ---------------------------------------------------------------------------
# Combined-state scan engine
# ---------------------------------------------------------------------------

def scan_slices(instance: PathInstance, assignment, field: GF2Field,
                costs, weights, d_cap: int, w_cap: int):
    """Yield (d, packed weight vector) for each nonzero exact-cost layer
    d <= d_cap, in increasing d, by a single walk-at-a-time scan.

    State (B, z): sinks in B are finished (walks are built in source
    order), the current walk stands at z (the next unstarted source when
    between walks).  Costs >= 1 make layers strictly increasing, so each
    layer is complete when reached.  The second cost (weight) rides along
    as one packed vector of slots 0..w_cap per state; slot w of a yielded
    vector is the reduced slice value at (d, w).  Weights past w_cap are
    dropped, so with zero weights and w_cap = 0 the vector is the plain
    exact-cost slice value.  The memory ceiling is checked once per layer
    against the states still pending.
    """
    _check_assignment(instance, assignment)
    k = instance.k
    sources = instance.sources
    sink_index = instance.sink_index
    out_edges = instance.out_edges
    heads = instance.edges
    is_term = instance.is_terminal
    full = (1 << k) - 1
    wsize = w_cap + 1
    wmask = (1 << (SLOT_BITS * wsize)) - 1
    pending = {0: {(0, sources[0]): 1}}  # packed weight vectors, unreduced
    answers = {}
    for d in range(d_cap + 1):
        acc = answers.pop(d, 0)
        if acc:
            vec = vec_reduce(acc, wsize, field)
            if vec:
                yield d, vec
        states = pending.pop(d, None)
        if not states:
            continue
        _check_budget(wsize * (len(states) + sum(map(len, pending.values()))),
                      DEFAULT_MEMORY_LIMIT)
        for (bmask, z), raw in states.items():
            vec = vec_reduce(raw, wsize, field)
            if not vec:
                continue
            win = None
            nexti = bin(bmask).count("1")
            for eid in out_edges[z]:
                fe = assignment[eid]
                if fe == 0:
                    continue
                d2 = d + costs[eid]
                if d2 > d_cap:
                    continue
                w = heads[eid][1]
                if not is_term(w):
                    key = (bmask, w)
                else:
                    j = sink_index.get(w)
                    if j is None or bmask & (1 << j):
                        continue
                    b2 = bmask | (1 << j)
                    key = None if b2 == full else (b2, sources[nexti + 1])
                if win is None:
                    win = vec_window(vec)
                carried = (vec_scalar_mul_w(win, fe)
                           << (SLOT_BITS * weights[eid])) & wmask
                if not carried:
                    continue
                if key is None:
                    answers[d2] = answers.get(d2, 0) ^ carried
                else:
                    tgt = pending.setdefault(d2, {})
                    tgt[key] = tgt.get(key, 0) ^ carried


def scan_min_cost_slice(instance: PathInstance, assignment, field: GF2Field,
                        cap: int | None = None, costs=None):
    """Least exact-cost index with a nonzero slice, scanning at most `cap`.

    The default cap is the instance's simple-set cost bound: the least
    nonzero slice, when one exists at all, is always certified by a set of
    k vertex-disjoint simple paths, whose cost that bound dominates.
    Returns (p, value) or None.
    """
    if cap is None:
        cap = instance.simple_cost_cap(costs)
    costs = instance.cost_list() if costs is None else costs
    return next(scan_slices(instance, assignment, field, costs,
                            [0] * instance.m, cap, 0), None)


def perturbed_scan(instance: PathInstance, assignment, field: GF2Field,
                   costs, weights, d_cap: int, w_cap: int,
                   stop_d: int | None = None, stop_w: int | None = None):
    """Scan over two-part costs (c(e), w(e)) in lexicographic order.

    A slice at (d, w) collects walk sets whose edge multiset sums to cost
    d and weight w; under isolation-perturbed costs c'(e) = c(e)*scale +
    w(e) the slice at perturbed cost d*scale + w is exactly this (d, w)
    slice, and numeric order on perturbed costs equals lexicographic order
    on (d, w) as long as w_cap < scale.

    Without stop bounds: returns the least (d, w) with a nonzero slice, or
    None.  With stop bounds: returns True iff no nonzero slice exists at
    any (d, w) lexicographically at or below (stop_d, stop_w).
    """
    if stop_d is None:
        for d, vec in scan_slices(instance, assignment, field, costs,
                                  weights, d_cap, w_cap):
            vals = vec_unpack(vec, w_cap + 1)
            return d, next(w for w, v in enumerate(vals) if v)
        return None
    low = (1 << (SLOT_BITS * (stop_w + 1))) - 1
    for d, vec in scan_slices(instance, assignment, field, costs, weights,
                              stop_d, w_cap):
        if d < stop_d or vec & low:
            return False
    return True
