"""Answer checks, made apart from the engine.

Each checker returns None for a correct answer and a one-line reason
otherwise.  The reference values come from `smallflow.oracle` (classical
min-cost flow, and disjoint paths by vertex splitting), never from the
randomized engine and never from a stored copy of earlier output.  Flow
and path-set properties are checked here directly.
"""

from __future__ import annotations

from smallflow.decision import NONZERO, ZERO


def check_decide(l, verdict, opt):
    """NONZERO exactly when k disjoint paths of total length <= l exist;
    `opt` is the unit-cost optimum, or None when no such paths exist."""
    if verdict.answer not in (NONZERO, ZERO):
        return f"unknown verdict {verdict.answer!r}"
    want = opt is not None and opt <= l
    if verdict.nonzero != want:
        return f"answered {verdict.answer} for l={l}, optimum {opt}"
    return None


def check_mincost(got, opt):
    """The minimum cost, or None exactly when no disjoint paths exist."""
    if got != opt:
        return f"answered cost {got}, optimum {opt}"
    return None


def check_flow(K, result, reference):
    """`result` is min_cost_flow's (cost, Flow) or None; `reference` is
    oracle.classic_min_cost_flow(K).  Checks the cost against the
    reference and the flow's capacity, conservation, value and cost."""
    if reference is None or result is None:
        if (reference is None) != (result is None):
            return f"answered {'no flow' if result is None else 'a flow'}, " \
                f"reference {'none' if reference is None else reference[0]}"
        return None
    cost, flow = result
    if cost != reference[0]:
        return f"answered cost {cost}, optimum {reference[0]}"
    amounts = flow.amounts
    if len(amounts) != K.m:
        return f"amounts cover {len(amounts)} of {K.m} arcs"
    net = [0] * K.n
    for eid, (u, v, cap, _cost) in enumerate(K.edges):
        a = amounts[eid]
        if not isinstance(a, int) or not 0 <= a <= cap:
            return f"amount {a} on arc {eid} outside [0, {cap}]"
        net[u] += a
        net[v] -= a
    for v in range(K.n):
        if v not in (K.source, K.sink) and net[v]:
            return f"conservation broken at vertex {v}: net {net[v]}"
    k = K.target_value
    if net[K.source] != k or net[K.sink] != -k or flow.value != k:
        return f"value {net[K.source]} out, {-net[K.sink]} in, " \
            f"declared {flow.value}, target {k}"
    priced = sum(a * arc[3] for a, arc in zip(amounts, K.edges))
    if priced != cost or flow.cost != cost:
        return f"cost {cost} (flow says {flow.cost}) but amounts price " \
            f"at {priced}"
    return None


def check_path_set(instance, paths):
    """k simple paths, one from each source, to distinct sinks, through
    non-terminals, sharing no vertex, priced at their declared total."""
    if len(paths.paths) != instance.k or len(paths.edge_ids) != instance.k:
        return f"{len(paths.paths)} paths for k={instance.k}"
    seen = set()
    total = 0
    for i, (vs, es) in enumerate(zip(paths.paths, paths.edge_ids)):
        if vs[0] != instance.sources[i] or vs[-1] not in instance.sink_index:
            return f"path {i} runs {vs[0]} -> {vs[-1]}, not source {i} " \
                "to a sink"
        if len(es) != len(vs) - 1 or len(es) < 1:
            return f"path {i} has {len(vs)} vertices and {len(es)} edges"
        for v in vs[1:-1]:
            if instance.is_terminal(v):
                return f"path {i} passes terminal {v}"
        for j, eid in enumerate(es):
            if not 0 <= eid < instance.m or \
                    instance.edges[eid] != (vs[j], vs[j + 1]):
                return f"path {i} step {j} is not edge {eid}"
            total += instance.cost(eid)
        for v in vs:
            if v in seen:
                return f"vertex {v} is on two paths or twice on one"
            seen.add(v)
    if total != paths.total_cost:
        return f"paths cost {total}, declared {paths.total_cost}"
    return None


def check_gadget_paths(gadget, paths, cost):
    """The disjoint path set a flow was read from: valid on the gadget
    network, and its gadget cost decodes to the flow's cost."""
    problem = check_path_set(gadget.instance, paths)
    if problem:
        return f"gadget paths: {problem}"
    if paths.total_cost // gadget.scale != cost:
        return f"gadget paths cost {paths.total_cost}, which does not " \
            f"decode to flow cost {cost} at scale {gadget.scale}"
    return None
