"""Command-line front end.

Subcommands: decide, mincost, find (paths instances), flow (DIMACS
instances), oracle (brute-force answers).
Reports are JSON (default) or text; identical config and seed give a
byte-identical report apart from the timing fields.

Exit codes: 0 answered, 1 infeasible or absent, 2 input error, 3 budget
or retries exhausted (false zeros on a feasible instance included), 4
oracle verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import decision, evaluator, extraction, flow as flow_mod, oracle
from .field import GF2Field
from .network import (
    ParseError,
    parse_dimacs_flow,
    parse_paths_instance,
    serialize_paths_instance,
)

EXIT_ANSWERED = 0
EXIT_ABSENT = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _add_io(p):
    """The instance and report options every subcommand reads."""
    p.add_argument("--input", "-i", default="-",
                   help="instance file, or - for stdin")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, help="write the report here")


def _add_query(p):
    """The options of the randomized queries (all subcommands but oracle)."""
    _add_io(p)
    p.add_argument("--field-exp", type=int, default=64,
                   help="field exponent s for GF(2^s)")
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions of each search (default: the least "
                        "t with ((n-1)/2^s)^t <= 2^-max(n, 64), n the "
                        "vertices of the graph searched, for flow its "
                        "gadget; a small field on a large instance needs "
                        "many, e.g. 551 at GF(2^8) and n = 200, and none "
                        "suffices when 2^s <= n - 1, which exits 2 "
                        "unless --reps is given)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the exact min-cost flow "
                        "oracle, at any instance size")
    p.add_argument("--memory-limit-mib", type=int, default=None,
                   help="ceiling for DP tables, scan graphs and the flow "
                        "gadget (default 2048)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="smallflow",
        description="Minimum-cost small flows and disjoint connecting paths "
                    "via randomized polynomial tests over GF(2^s).")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decide", help="k disjoint paths of bounded length?")
    _add_query(p)
    p.add_argument("--length-bound", "-l", type=int, default=None,
                   help="total length bound (default k(n-1))")
    p.add_argument("--parallelism", type=int, default=1)

    p = sub.add_parser("mincost", help="minimum cost of k disjoint paths")
    _add_query(p)

    p = sub.add_parser("find", help="construct a minimum-cost disjoint path set")
    _add_query(p)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--strategy", choices=("deletion", "isolation"),
                   default="deletion")

    p = sub.add_parser("flow", help="minimum-cost flow of the target value")
    _add_query(p)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--dump-gadget", default=None,
                   help="also write the gadget network as a paths instance")

    p = sub.add_parser("oracle", help="brute-force answers for an instance")
    _add_io(p)
    p.add_argument("--kind", choices=("paths", "flow"), default="paths")
    p.add_argument("--length-bound", "-l", type=int, default=None)

    return ap


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _params(args):
    return decision.TestParams(field=GF2Field(args.field_exp),
                               repetitions=args.reps, seed=args.seed)


def _one_indexed(paths):
    return [[v + 1 for v in p] for p in paths]


def _finish(args, t0, report, code):
    """Emit report, as JSON or text lines, to --out or stdout, with the
    fields all subcommands share (a field of its own takes the place of a
    shared one of the same name); return code."""
    report = {"schema": 1, "subcommand": args.subcommand, "deviations": [],
              **report,
              "timing_ms": round((time.perf_counter() - t0) * 1000, 3)}
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(f"{k}: {report[k]}\n" for k in sorted(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _report(args, params, n, fields, answered, exact, got, oracle_key,
            oracle_answer):
    """The report fields and exit code of decide, mincost, find or flow:
    its fields with the seed, field and repetitions, exit 0 when answered
    and 1 otherwise.  repetitions is the count each search drew on its
    graph of n vertices, and 0 for an exact answer, which ran no search.
    With --verify, the verify block holds oracle_answer() under
    oracle_key and whether it matches got, and a mismatch exits 4.  The
    oracles are exact and polynomial at any size: min-cost flow on the
    vertex-split graph for paths queries, and on the network for flow."""
    report = {"seed": args.seed, "field_exponent": args.field_exp,
              "repetitions": 0 if exact else params.repetitions_for(n),
              **fields}
    code = EXIT_ANSWERED if answered else EXIT_ABSENT
    if args.verify:
        want = oracle_answer()
        report["verify"] = {oracle_key: want, "match": want == got}
        if want != got:
            code = EXIT_MISMATCH
    return report, code


def _cost(found):
    """The cost of an oracle answer, None when it found nothing."""
    return found[0] if found else None


def _cmd_decide(args, instance, params):
    l = args.length_bound
    deviations = []
    if l is None:
        l = instance.k * (instance.n - 1)
        deviations.append(f"length bound defaulted to k(n-1) = {l}")
    verdict = decision.decide_disjoint_paths(
        instance, l, params, parallelism=args.parallelism)
    # log2 of the probabilistic ZERO's error bound (degree / 2^s)^t
    bound = None if verdict.nonzero or verdict.degree is None else round(
        params.repetitions_for(instance.n)
        * (math.log2(verdict.degree) - args.field_exp), 2)
    fields = {"answer": verdict.answer, "length_bound": l,
              "evaluated_degree": verdict.degree,
              "error_bound_log2": bound, "deviations": deviations}

    def oracle_answer():  # NONZERO when the least total length is <= l
        least = oracle.disjoint_paths_min_cost_via_flow(instance,
                                                        [1] * instance.m)
        return "NONZERO" if least is not None and least <= l else "ZERO"

    return _report(args, params, instance.n, fields, verdict.nonzero,
                   verdict.degree is None, verdict.answer, "oracle_answer",
                   oracle_answer)


def _cmd_mincost(args, instance, params):
    cost = decision.min_cost_disjoint_paths(instance, params)
    return _report(
        args, params, instance.n, {"cost": cost}, cost is not None,
        cost is None, cost, "oracle_cost",
        lambda: oracle.disjoint_paths_min_cost_via_flow(instance))


def _cmd_find(args, instance, params):
    stats = {}
    ps = extraction.find_disjoint_paths(instance, params,
                                        max_retries=args.max_retries,
                                        strategy=args.strategy,
                                        report=stats)
    cost = ps.total_cost if ps else None
    fields = {
        "cost": cost,
        "paths": _one_indexed(ps.paths) if ps else None,
        "isolation_range": stats.get("r"),
        "strategy": stats.get("strategy"),
        "retries_used": stats.get("attempts", 1) - 1 if ps else None,
    }
    return _report(
        args, params, instance.n, fields, ps is not None, ps is None, cost,
        "oracle_cost",
        lambda: oracle.disjoint_paths_min_cost_via_flow(instance))


def _cmd_flow(args, K, params):
    if args.dump_gadget:
        gadget = flow_mod.build_gadget_network(K)
        with open(args.dump_gadget, "w", encoding="utf-8") as fh:
            fh.write(serialize_paths_instance(gadget.instance))
    res = flow_mod.min_cost_flow(K, params, max_retries=args.max_retries)
    if res is None:
        cost, rows = None, None
    else:
        cost, f = res
        rows = [[u + 1, v + 1, f.amounts[eid], c]
                for eid, (u, v, _cap, c) in enumerate(K.edges)
                if f.amounts[eid] > 0]
    fields = {"cost": cost, "flow": rows, "target_value": K.target_value}
    return _report(args, params, flow_mod.gadget_vertex_count(K), fields,
                   cost is not None, cost is None, cost, "oracle_cost",
                   lambda: _cost(oracle.classic_min_cost_flow(K)))


def _cmd_oracle(args, instance, params):
    bound = args.length_bound
    if args.kind == "flow":
        found = oracle.classic_min_cost_flow(instance)
        fields = {"cost": _cost(found)}
    else:
        found = oracle.brute_force_disjoint_paths(
            instance, mode="cost" if bound is None else "length",
            bound=bound)
        fields = {"cost" if bound is None else "length": _cost(found),
                  "paths": _one_indexed(found[1].paths) if found else None}
    return ({"kind": args.kind, **fields},
            EXIT_ANSWERED if found else EXIT_ABSENT)


def main(argv=None) -> int:
    """Run one subcommand on argv (sys.argv when None), write its report,
    and return its exit code (module docstring).  Input errors, budget
    errors and exhausted retries are messages and exit codes, not
    tracebacks; the memory ceiling is restored on every exit."""
    args = build_parser().parse_args(argv)
    handler = {
        "decide": _cmd_decide,
        "mincost": _cmd_mincost,
        "find": _cmd_find,
        "flow": _cmd_flow,
        "oracle": _cmd_oracle,
    }[args.subcommand]
    t0 = time.perf_counter()
    ceiling = evaluator.DEFAULT_MEMORY_LIMIT  # restored on every exit
    try:
        limit_mib = getattr(args, "memory_limit_mib", None)
        if limit_mib is not None:
            if limit_mib < 1:
                raise ValueError(f"--memory-limit-mib {limit_mib} below 1")
            evaluator.set_default_memory_limit(limit_mib << 20)
        dimacs = "flow" in (args.subcommand, getattr(args, "kind", None))
        if dimacs and getattr(args, "length_bound", None) is not None:
            raise ValueError("--length-bound applies to paths instances only")
        instance = (parse_dimacs_flow if dimacs else parse_paths_instance)(
            _read_input(args.input))
        params = None if args.subcommand == "oracle" else _params(args)
        return _finish(args, t0, *handler(args, instance, params))
    except (ParseError, ValueError, OSError) as exc:
        # an OSError that names a file comes from -i, --out or
        # --dump-gadget (missing, a directory, no permission)
        if isinstance(exc, OSError) and exc.filename is None:
            raise
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (evaluator.BudgetError, decision.RetriesExhaustedError,
            oracle.EnumerationBudgetError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        evaluator.set_default_memory_limit(ceiling)


if __name__ == "__main__":
    sys.exit(main())
