import pytest

from smallflow import GF2Field, PathInstance, TablePlan
from smallflow.evaluator import ScanGraph, scan_slices
from smallflow.oracle import subdivide_costs, subdivision_assignment


@pytest.fixture(scope="session")
def field64():
    return GF2Field(64)


@pytest.fixture(scope="session")
def field8():
    return GF2Field(8)


@pytest.fixture
def single_edge():
    """One edge x1 -> y1."""
    return PathInstance(2, [(0, 1)], [0], [1])


@pytest.fixture
def bipartite22():
    """X = {0, 1}, Y = {2, 3}, all four cross edges.

    Edge ids: 0: (0,2), 1: (0,3), 2: (1,2), 3: (1,3).
    """
    return PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3])


@pytest.fixture
def detour():
    """x1 -> 4 -> y1 and x2 -> 7 -> y2, each with a route one edge longer
    listed after it (x1 -> 5 -> 6 -> y1, x2 -> 8 -> 9 -> y2).  The Menger
    search follows the last head it pushed, so its paths take both long
    routes, of total length 6: at l = 4 (the optimum and the floor) and
    l = 5 the query is answered by the length tables."""
    return PathInstance(10, [(0, 4), (4, 2), (0, 5), (5, 6), (6, 2),
                             (1, 7), (7, 3), (1, 8), (8, 9), (9, 3)],
                        [0, 1], [2, 3])


@pytest.fixture
def bottleneck():
    """x1, x2 -> v -> y1, y2: no two disjoint paths, all monomials cancel."""
    return PathInstance(5, [(0, 2), (1, 2), (2, 3), (2, 4)], [0, 1], [3, 4])


@pytest.fixture(scope="session")
def materialize():
    """materialize(graph): read the moves of every state reachable from
    the ScanGraph's start that can finish, so that the graph holds them
    all; returns the graph."""
    def read_all(graph):
        todo = [] if graph.floor is None else [graph.start]
        while todo:
            for _, _, key, _, _ in graph[todo.pop()]:
                if key is not None and key not in graph:
                    todo.append(key)
        return graph
    return read_all


@pytest.fixture(scope="session")
def subdivided_slices():
    """subdivided_slices(inst, f, field, bound): the exact-cost slices
    0..bound of inst at its own costs and edge values f, read off the
    unit-cost table engine on the explicit subdivision (each cost-c edge
    a path of c unit edges, oracle.subdivide_costs, whose first edge
    carries the edge's value and the rest carry one): the reference for
    the scan engine, which walks the costs themselves."""
    def slices(inst, f, field, bound):
        sub, carry = subdivide_costs(inst)
        return TablePlan(sub, bound).slices(
            subdivision_assignment(sub, carry, f), field)
    return slices


@pytest.fixture(scope="session")
def scan_cost_slices():
    """scan_cost_slices(inst, f, field, cap, costs=None): the exact-cost
    slices 0..cap of inst at edge values f, read off the scan engine at
    the given costs (the instance's by default)."""
    def slices(inst, f, field, cap, costs=None):
        out = [0] * (cap + 1)
        graph = ScanGraph(inst, inst.cost_list() if costs is None else costs)
        for d, vec in scan_slices(graph, f, field, cap):
            out[d] = vec
        return out
    return slices


@pytest.fixture(scope="session")
def path_set_problem():
    """path_set_problem(instance, ps): the first way in which the PathSet
    ps is not k simple, pairwise vertex-disjoint paths along the
    instance's edges, from every source to every sink, priced at the
    declared total_cost; None when it is."""
    def problem(instance, ps):
        seen = set()
        for path, eids in zip(ps.paths, ps.edge_ids):
            if len(set(path)) != len(path):
                return f"path {path} is not simple"
            if set(path) & seen:
                return f"path {path} meets another path"
            seen |= set(path)
            if path[0] not in instance.source_index or \
                    path[-1] not in instance.sink_index:
                return f"path {path} does not run from a source to a sink"
            for i, eid in enumerate(eids):
                if instance.edges[eid] != (path[i], path[i + 1]):
                    return f"step {i} of path {path} is not edge {eid}"
        if sorted(p[0] for p in ps.paths) != sorted(instance.sources):
            return "the paths do not start at the sources"
        if sorted(p[-1] for p in ps.paths) != sorted(instance.sinks):
            return "the paths do not end at the sinks"
        total = sum(instance.cost(e) for e in ps.all_edge_ids())
        if ps.total_cost != total:
            return f"the edges cost {total}, declared {ps.total_cost}"
        return None
    return problem
