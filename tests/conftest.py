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
