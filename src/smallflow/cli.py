"""Command-line front end.

Subcommands: decide, mincost, find (paths instances), flow (DIMACS
instances), oracle (brute-force answers), bench (timing/scaling table).
Reports are JSON (default) or text; identical config and seed give a
byte-identical report apart from the timing fields.

Exit codes: 0 answered, 1 infeasible or absent, 2 input error, 3 budget
or retries exhausted, 4 oracle verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import decision, evaluator, extraction, flow as flow_mod, oracle
from .field import GF2Field, derive_rng
from .network import (
    ParseError,
    parse_dimacs_flow,
    parse_paths_instance,
    random_paths_instance,
    serialize_paths_instance,
)

EXIT_ANSWERED = 0
EXIT_ABSENT = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _add_common(p, costed=False):
    p.add_argument("--input", "-i", default="-",
                   help="instance file, or - for stdin")
    p.add_argument("--field-exp", type=int, default=64,
                   help="field exponent s for GF(2^s)")
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions (default max(3, ceil(log2 n)))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, help="write the report here")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the brute-force oracle")
    p.add_argument("--memory-limit-mib", type=int, default=None,
                   help="ceiling for DP tables (default 2048)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="smallflow",
        description="Minimum-cost small flows and disjoint connecting paths "
                    "via randomized polynomial tests over GF(2^s).")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decide", help="k disjoint paths of bounded length?")
    _add_common(p)
    p.add_argument("--length-bound", "-l", type=int, default=None,
                   help="total length bound (default k(n-1))")
    p.add_argument("--parallelism", type=int, default=1)

    p = sub.add_parser("mincost", help="minimum cost of k disjoint paths")
    _add_common(p)
    p.add_argument("--u-max", type=int, default=None,
                   help="cost ceiling (default C n^2)")

    p = sub.add_parser("find", help="construct a minimum-cost disjoint path set")
    _add_common(p)
    p.add_argument("--isolation-range", "-r", default=None,
                   help="int, or 'paper' for n^2 m (default desk-scale "
                        "max(64, 4m)); --strategy isolation only")
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--strategy", choices=("deletion", "isolation"),
                   default="deletion")

    p = sub.add_parser("flow", help="minimum-cost flow of the target value")
    _add_common(p)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--dump-gadget", default=None,
                   help="also write the gadget network as a paths instance")

    p = sub.add_parser("oracle", help="brute-force answers for an instance")
    _add_common(p)
    p.add_argument("--kind", choices=("paths", "flow"), default="paths")
    p.add_argument("--length-bound", "-l", type=int, default=None)

    p = sub.add_parser("bench", help="timing and table-size scaling")
    p.add_argument("--sizes", default="16,1,1;16,2,1;16,3,1;64,4,1",
                   help="semicolon-separated n,k,C triples")
    p.add_argument("--degrees", default="1,2,4,max",
                   help="comma-separated parallelism degrees")
    p.add_argument("--length-bound", "-l", type=int, default=None,
                   help="fixed length bound for every size (default k(n-1))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return ap


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args, report):
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(f"{k}: {report[k]}\n" for k in sorted(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args, n):
    reps = args.reps if args.reps is not None \
        else decision.default_repetitions(n)
    return decision.TestParams(field=GF2Field(args.field_exp),
                               repetitions=reps, seed=args.seed)


def _one_indexed(paths):
    return [[v + 1 for v in p] for p in paths]


def _finish(args, report, t0, exit_code):
    report["timing_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    _emit(args, report)
    return exit_code


def _cmd_decide(args):
    t0 = time.perf_counter()
    instance = parse_paths_instance(_read_input(args.input))
    l = args.length_bound
    deviations = []
    if l is None:
        l = instance.k * (instance.n - 1)
        deviations.append(f"length bound defaulted to k(n-1) = {l}")
    params = _params(args, instance.n)
    if args.parallelism > 1:
        verdict = decision.Verdict(decision.ZERO)
        for rep in range(params.repetitions):
            f = evaluator.random_assignment(
                params.field, instance.m,
                derive_rng(params.seed, "decide-length", rep))
            if evaluator.eval_length_bounded_par(
                    instance, l, f, params.field,
                    parallelism=args.parallelism):
                verdict = decision.Verdict(decision.NONZERO, tuple(f))
                break
    else:
        verdict = decision.decide_disjoint_paths(instance, l, params)
    report = {
        "schema": 1,
        "subcommand": "decide",
        "answer": verdict.answer,
        "length_bound": l,
        "seed": args.seed,
        "field_exponent": args.field_exp,
        "repetitions": params.repetitions,
        "deviations": deviations,
    }
    code = EXIT_ANSWERED if verdict.nonzero else EXIT_ABSENT
    if args.verify:
        found = oracle.brute_force_disjoint_paths(instance, mode="length",
                                                  bound=l)
        report["verify"] = {
            "oracle_answer": "NONZERO" if found else "ZERO",
            "match": (found is not None) == verdict.nonzero,
        }
        if not report["verify"]["match"]:
            code = EXIT_MISMATCH
    return _finish(args, report, t0, code)


def _cmd_mincost(args):
    t0 = time.perf_counter()
    instance = parse_paths_instance(_read_input(args.input))
    params = _params(args, instance.n)
    u_max = args.u_max
    deviations = []
    if u_max is None:
        u_max = instance.max_cost() * instance.n * instance.n
        deviations.append(f"cost ceiling defaulted to C n^2 = {u_max}")
    cost = decision.min_cost_disjoint_paths(instance, params, u_max=u_max)
    report = {
        "schema": 1,
        "subcommand": "mincost",
        "cost": cost,
        "u_max": u_max,
        "seed": args.seed,
        "field_exponent": args.field_exp,
        "repetitions": params.repetitions,
        "deviations": deviations,
    }
    code = EXIT_ANSWERED if cost is not None else EXIT_ABSENT
    if args.verify:
        found = oracle.brute_force_disjoint_paths(instance, mode="cost")
        oracle_cost = found[0] if found else None
        report["verify"] = {"oracle_cost": oracle_cost,
                            "match": oracle_cost == cost}
        if not report["verify"]["match"]:
            code = EXIT_MISMATCH
    return _finish(args, report, t0, code)


def _cmd_find(args):
    t0 = time.perf_counter()
    instance = parse_paths_instance(_read_input(args.input))
    params = _params(args, instance.n)
    r, deviations = None, []
    if args.strategy != "isolation":
        if args.isolation_range is not None:
            raise ValueError("--isolation-range needs --strategy isolation")
    elif args.isolation_range == "paper":
        r = extraction.paper_isolation_range(instance)
    elif args.isolation_range is not None:
        r = int(args.isolation_range)
    else:
        r = extraction.desk_isolation_range(instance)
        paper_r = extraction.paper_isolation_range(instance)
        if r != paper_r:
            deviations.append(
                f"isolation range r defaulted to desk-scale max(64, 4m) = "
                f"{r}, not the n^2 m = {paper_r} setting")
    stats = {}
    ps = extraction.find_disjoint_paths(instance, params,
                                        max_retries=args.max_retries,
                                        r=r, strategy=args.strategy,
                                        report=stats)
    report = {
        "schema": 1,
        "subcommand": "find",
        "cost": ps.total_cost if ps else None,
        "paths": _one_indexed(ps.paths) if ps else None,
        "isolation_range": r,
        "strategy": stats.get("strategy"),
        "retries_used": stats.get("attempts", 1) - 1 if ps else None,
        "seed": args.seed,
        "field_exponent": args.field_exp,
        "repetitions": params.repetitions,
        "deviations": deviations,
    }
    code = EXIT_ANSWERED if ps is not None else EXIT_ABSENT
    if args.verify:
        found = oracle.brute_force_disjoint_paths(instance, mode="cost")
        oracle_cost = found[0] if found else None
        got = ps.total_cost if ps else None
        report["verify"] = {"oracle_cost": oracle_cost,
                            "match": oracle_cost == got}
        if not report["verify"]["match"]:
            code = EXIT_MISMATCH
    return _finish(args, report, t0, code)


def _cmd_flow(args):
    t0 = time.perf_counter()
    K = parse_dimacs_flow(_read_input(args.input))
    params = _params(args, K.n)
    deviations = []
    if args.dump_gadget:
        gadget = flow_mod.build_gadget_network(flow_mod.clamp_capacities(K))
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
    report = {
        "schema": 1,
        "subcommand": "flow",
        "cost": cost,
        "flow": rows,
        "target_value": K.target_value,
        "seed": args.seed,
        "field_exponent": args.field_exp,
        "repetitions": params.repetitions,
        "deviations": deviations,
    }
    code = EXIT_ANSWERED if cost is not None else EXIT_ABSENT
    if args.verify:
        found = oracle.classic_min_cost_flow(K)
        oracle_cost = found[0] if found else None
        report["verify"] = {"oracle_cost": oracle_cost,
                            "match": oracle_cost == cost}
        if not report["verify"]["match"]:
            code = EXIT_MISMATCH
    return _finish(args, report, t0, code)


def _cmd_oracle(args):
    t0 = time.perf_counter()
    text = _read_input(args.input)
    if args.kind == "flow":
        K = parse_dimacs_flow(text)
        found = oracle.classic_min_cost_flow(K)
        report = {
            "schema": 1,
            "subcommand": "oracle",
            "kind": "flow",
            "cost": found[0] if found else None,
            "deviations": [],
        }
        code = EXIT_ANSWERED if found else EXIT_ABSENT
    else:
        instance = parse_paths_instance(text)
        bound = args.length_bound
        found = oracle.brute_force_disjoint_paths(
            instance, mode="length" if bound is not None else "cost",
            bound=bound)
        report = {
            "schema": 1,
            "subcommand": "oracle",
            "kind": "paths",
            "cost": found[0] if found else None,
            "paths": _one_indexed(found[1].paths) if found else None,
            "deviations": [],
        }
        code = EXIT_ANSWERED if found else EXIT_ABSENT
    return _finish(args, report, t0, code)


def _cmd_bench(args):
    field = GF2Field(64)
    sizes = []
    for part in args.sizes.split(";"):
        n, k, c = (int(x) for x in part.split(","))
        sizes.append((n, k, c))
    degrees = []
    for part in args.degrees.split(","):
        degrees.append(os.cpu_count() or 1 if part == "max" else int(part))
    lines = ["n,k,C,l,degree,pair_cells,subset_cells,wall_ms,value,"
             "speedup_vs_degree1,error"]
    for idx, (n, k, c) in enumerate(sizes):
        rng = derive_rng(args.seed, "bench", idx)
        instance = random_paths_instance(
            rng, n, k, extra_edges=4 * n, cost_max=None if c <= 1 else c)
        l = args.length_bound or k * (n - 1)
        l = min(l, k * (n - 1))
        f = evaluator.random_assignment(field, instance.m, rng)
        base_ms = None
        for degree in degrees:
            try:
                t0 = time.perf_counter()
                ev = evaluator.LengthEvaluation(instance, l, f, field,
                                                doubling=True,
                                                parallelism=degree)
                wall = (time.perf_counter() - t0) * 1000
                value = ev.value()
                if degree == 1:
                    base_ms = wall
                speedup = f"{base_ms / wall:.2f}" if base_ms else ""
                lines.append(
                    f"{n},{k},{c},{l},{degree},{ev.pair_cells},"
                    f"{ev.subset_cells},{wall:.1f},{value:#x},{speedup},")
            except evaluator.BudgetError as exc:
                lines.append(f"{n},{k},{c},{l},{degree},,,,,,{exc}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_ANSWERED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "decide": _cmd_decide,
        "mincost": _cmd_mincost,
        "find": _cmd_find,
        "flow": _cmd_flow,
        "oracle": _cmd_oracle,
        "bench": _cmd_bench,
    }[args.subcommand]
    try:
        limit_mib = getattr(args, "memory_limit_mib", None)
        if limit_mib is not None:
            if limit_mib < 1:
                raise ValueError(f"--memory-limit-mib {limit_mib} below 1")
            evaluator.set_default_memory_limit(limit_mib << 20)
        return handler(args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (evaluator.BudgetError, extraction.RetriesExhaustedError,
            oracle.EnumerationBudgetError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
