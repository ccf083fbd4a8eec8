"""Randomized non-identity tests with one-sided error.

A query evaluates its cancellation polynomial at uniformly random field
points.  A nonzero value certifies that the polynomial is nonzero, hence
that the queried structure exists (NONZERO answers are never wrong); a run
of zero evaluations is a probabilistic ZERO with per-repetition failure at
most degree / field size.  Repetitions draw independent derived streams
from (seed, repetition), so verdicts are reproducible byte for byte and
monotone in the repetition count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .evaluator import (
    eval_length_bounded_seq,
    random_assignment,
    scan_min_cost_slice,
)
from .field import GF2Field, derive_rng
from .network import PathInstance

NONZERO = "NONZERO"
ZERO = "ZERO"


def default_repetitions(n: int) -> int:
    return max(3, math.ceil(math.log2(max(n, 2))))


@dataclass(frozen=True)
class TestParams:
    """Field, repetition count, and root seed for one randomized query."""

    __test__ = False  # not a pytest class, despite the name

    field: GF2Field = dataclass_field(default_factory=lambda: GF2Field(64))
    repetitions: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    def check_degree(self, degree: int):
        """The error bound d/r needs the field larger than the degree."""
        if self.field.order <= degree:
            raise ValueError(
                f"field of size 2^{self.field.exponent} too small for a "
                f"degree-{degree} polynomial test")


@dataclass(frozen=True)
class Verdict:
    answer: str  # NONZERO (certain) or ZERO (probabilistic)
    witness_assignment: tuple | None = None

    @property
    def nonzero(self) -> bool:
        return self.answer == NONZERO


def decide_disjoint_paths(instance: PathInstance, l: int,
                          params: TestParams) -> Verdict:
    """Do k mutually vertex-disjoint X->Y paths of total length <= l exist?

    NONZERO is certain; ZERO errs with probability at most (l / 2^s)^t.
    """
    if not 1 <= l <= instance.k * (instance.n - 1):
        raise ValueError(
            f"length bound {l} outside [1, {instance.k * (instance.n - 1)}]")
    params.check_degree(l)
    for rep in range(params.repetitions):
        rng = derive_rng(params.seed, "decide-length", rep)
        f = random_assignment(params.field, instance.m, rng)
        if eval_length_bounded_seq(instance, l, f, params.field):
            return Verdict(NONZERO, tuple(f))
    return Verdict(ZERO)


def decide_cost_bounded(instance: PathInstance, u: int,
                        params: TestParams) -> Verdict:
    """Do k disjoint paths of total cost <= u exist?

    Scans exact-cost slices upward, capped by min(u, simple-set cost
    bound): when the cost-bounded polynomial is nonzero at all, its least
    nonzero slice is witnessed by simple paths and lies under that cap.
    Bounds below k are allowed and trivially ZERO (k walks cost >= k).
    """
    if u < 1:
        raise ValueError(f"cost bound {u} must be >= 1")
    cap = min(u, instance.simple_cost_cap())
    params.check_degree(cap)
    for rep in range(params.repetitions):
        rng = derive_rng(params.seed, "decide-cost", rep)
        f = random_assignment(params.field, instance.m, rng)
        if scan_min_cost_slice(instance, f, params.field, cap=cap):
            return Verdict(NONZERO, tuple(f))
    return Verdict(ZERO)


def min_cost_disjoint_paths(instance: PathInstance,
                            params: TestParams,
                            u_max: int | None = None) -> int | None:
    """Minimum total cost of k disjoint paths, or None if none exist.

    One slice scan per repetition; the least nonzero slice index is the
    answer for that repetition (each monomial lives in exactly one
    exact-cost slice), and repetitions combine by taking the minimum.
    """
    if u_max is None:
        u_max = instance.max_cost() * instance.n * instance.n
    if u_max < instance.k:
        raise ValueError(f"cost ceiling {u_max} below k = {instance.k}")
    cap = min(u_max, instance.simple_cost_cap())
    params.check_degree(cap)
    best = None
    for rep in range(params.repetitions):
        rng = derive_rng(params.seed, "min-cost", rep)
        f = random_assignment(params.field, instance.m, rng)
        hit = scan_min_cost_slice(instance, f, params.field, cap=cap)
        if hit is not None and (best is None or hit[0] < best):
            best = hit[0]
    return best
