"""Command-line front end: solve, verify, reduce, gen, bench, sweep.

Exit codes: 0 success, 2 input error, 3 size or budget cap, 4 internal
verification failure, 5 requested method does not apply to the instance.
Every witness printed by a solve path has already been re-verified by the
independent checkers; a verification failure aborts with code 4 instead of
printing an unverified answer.
"""
from __future__ import annotations

import argparse
import sys
import time

from . import bench as bench_mod
from . import sweeps
from .chain import grundy_chain, grundy_cochain, recognize_chain
from .errors import (
    BudgetExceededError,
    GrundyError,
    InputError,
    IllegalStepError,
    IsolatedVertexError,
    NotChainGraphError,
    SizeCapError,
    VerificationError,
)
from .exact import HARD_CAP, grundy_domination_exact
from .generators import ChainProfile, chain_from_profile, random_graph, random_hypergraph
from .graph import load_graph, read_text, save_graph
from .hypergraph import load_hypergraph, save_hypergraph
from .reductions import format_roles, graph_to_cobipartite, hypergraph_to_bipartite
from .sequences import check_closed_neighborhood_sequence, parse_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4
EXIT_METHOD = 5

# complement() is quadratic, so auto mode only attempts the co-chain route
# on instances where that is clearly affordable
AUTO_COCHAIN_CAP = 2048


def _print_report(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={value}")


# ---- solve -----------------------------------------------------------------


def _solve_auto(g, budget):
    try:
        cs = recognize_chain(g)
        return "chain", grundy_chain(cs), cs, None
    except (NotChainGraphError, IsolatedVertexError):
        pass
    if g.n <= AUTO_COCHAIN_CAP:
        try:
            gamma, seq = grundy_cochain(g)
            return "cochain", seq, None, gamma
        except (NotChainGraphError, IsolatedVertexError):
            pass
    if g.n > HARD_CAP:
        raise SizeCapError(
            g.n,
            HARD_CAP,
            what="vertices (not a chain or co-chain graph, and too large for "
            "the exact solver; supported classes: chain, co-chain, or any "
            f"graph with at most {HARD_CAP} vertices)",
        )
    result = grundy_domination_exact(g, node_budget=budget)
    return "exact", result.best_sequence, None, result.nodes_explored


def cmd_solve(args) -> int:
    g = load_graph(args.path)
    report = [("command", "solve"), ("n", g.n), ("m", g.edge_count)]
    start = time.perf_counter()
    cs = None
    extra = None
    if args.method == "auto":
        method, seq, cs, extra = _solve_auto(g, args.budget)
    elif args.method == "chain":
        try:
            cs = recognize_chain(g)
        except IsolatedVertexError as exc:
            raise InputError(
                f"{exc}; the chain solver requires none, use --method exact"
            ) from exc
        method, seq = "chain", grundy_chain(cs)
    elif args.method == "cochain":
        gamma, seq = grundy_cochain(g)
        method, extra = "cochain", gamma
    else:
        result = grundy_domination_exact(g, node_budget=args.budget)
        method, seq, extra = "exact", result.best_sequence, result.nodes_explored
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    report.append(("method", method))
    report.append(("gamma_gr", len(seq.order)))
    report.append(("witness", " ".join(str(v) for v in seq.order)))
    partition_line = None
    if cs is not None:
        x_sizes = ",".join(str(len(p)) for p in cs.x_parts)
        y_sizes = ",".join(str(len(p)) for p in cs.y_parts)
        if args.machine:
            report.append(("k", cs.k))
            report.append(("x_sizes", x_sizes))
            report.append(("y_sizes", y_sizes))
        else:
            partition_line = f"k={cs.k} |X_i|={x_sizes} |Y_i|={y_sizes}"
    elif method == "cochain":
        report.append(("cochain_classes", len(seq.order) - 1))
    elif method == "exact" and extra is not None:
        report.append(("nodes", extra))
    report.append(("time_ms", f"{elapsed_ms:.3f}"))
    _print_report(report)
    if partition_line:
        print(partition_line)
    return EXIT_OK


# ---- verify ----------------------------------------------------------------


def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    order = parse_sequence(read_text(args.sequence))
    report = [("command", "verify"), ("n", g.n), ("m", g.edge_count)]
    try:
        seq = check_closed_neighborhood_sequence(g, order)
    except IllegalStepError as exc:
        report.append(("legal", "false"))
        report.append(("violation_position", exc.position))
        report.append(("violation_vertex", exc.vertex))
        _print_report(report)
        return EXIT_OK
    report.append(("legal", "true"))
    report.append(("dominating", "true" if seq.covered() == g.n else "false"))
    report.append(("covered", f"{seq.covered()}/{g.n}"))
    _print_report(report)
    if args.machine:
        for pos, (v, fp) in enumerate(zip(seq.order, seq.footprints)):
            print(f"footprint_{pos}={v}:{','.join(str(u) for u in fp)}")
    else:
        print("footprints:")
        for v, fp in zip(seq.order, seq.footprints):
            print(f"  {v}: {' '.join(str(u) for u in fp)}")
    return EXIT_OK


# ---- reduce ----------------------------------------------------------------


def cmd_reduce(args) -> int:
    if args.to == "bipartite":
        h = load_hypergraph(args.path)
        rmap = hypergraph_to_bipartite(h)
    else:
        g = load_graph(args.path)
        rmap = graph_to_cobipartite(g)
    roles_path = args.roles or args.out + ".roles"
    save_graph(rmap.target, args.out)
    with open(roles_path, "w", encoding="utf-8") as fh:
        fh.write(format_roles(rmap))
    _print_report(
        [
            ("command", "reduce"),
            ("target", args.to),
            ("n", rmap.target.n),
            ("m", rmap.target.edge_count),
            ("out", args.out),
            ("roles", roles_path),
        ]
    )
    return EXIT_OK


# ---- gen -------------------------------------------------------------------


def _parse_profile(spec: str) -> ChainProfile:
    try:
        x_text, y_text = spec.split("x")
        sizes_x = tuple(int(tok) for tok in x_text.split(","))
        sizes_y = tuple(int(tok) for tok in y_text.split(","))
    except ValueError as exc:
        raise InputError(
            f"profile must look like '1,2,1x2,1,3' (X sizes, then Y sizes), got {spec!r}"
        ) from exc
    return ChainProfile(sizes_x, sizes_y)


def cmd_gen(args) -> int:
    if args.kind == "chain":
        g = chain_from_profile(_parse_profile(args.profile))
        save_graph(g, args.out)
        summary = [("kind", "chain"), ("n", g.n), ("m", g.edge_count)]
    elif args.kind == "graph":
        g = random_graph(args.n, args.p, args.seed)
        save_graph(g, args.out)
        summary = [("kind", "graph"), ("n", g.n), ("m", g.edge_count)]
    else:
        h = random_hypergraph(args.n, args.m, args.seed)
        save_hypergraph(h, args.out)
        summary = [("kind", "hypergraph"), ("n", h.n), ("m", h.m)]
    _print_report([("command", "gen")] + summary + [("out", args.out)])
    return EXIT_OK


# ---- bench -----------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _positive_int_list(text: str) -> list[int]:
    return [_positive_int(tok) for tok in text.split(",")]


def cmd_bench(args) -> int:
    rows = bench_mod.run_bench(args.sizes, repeats=args.repeats, shape=args.shape)
    for row in rows:
        print(f"{row.n},{row.median_ms:.3f}")
    if not args.machine:
        ratios = bench_mod.doubling_ratios(rows)
        if ratios:
            print("ratios=" + ",".join(f"{r:.2f}" for r in ratios))
    return EXIT_OK


# ---- sweep -----------------------------------------------------------------


def _finish_sweep(name: str, checked: int, failures) -> int:
    print(f"sweep={name}")
    print(f"checked={checked}")
    print(f"failures={len(failures)}")
    for line in failures[:50]:
        print(f"failure={line}")
    return EXIT_OK if not failures else EXIT_VERIFY


def cmd_sweep(args) -> int:
    jobs = args.jobs
    if args.family == "chain":
        profiles = sweeps.exhaustive_profiles(args.max_k, args.max_part, args.max_vertices)
        profiles += [
            sweeps.random_chain_profile(args.random_vertices, args.seed + i)
            for i in range(args.random)
        ]
        report = sweeps.chain_sweep(profiles, jobs=jobs)
        failures = (
            report.gamma_mismatches
            + report.witness_failures
            + report.alpha_mismatches
            + report.sandwich_failures
            + report.structure_failures
        )
        return _finish_sweep("chain", report.checked, failures)
    if args.family == "duality":
        outcome = sweeps.duality_exhaustive_sweep(args.n_max, args.m_max, jobs=jobs)
        random_part = sweeps.duality_random_sweep(
            args.random, seed=args.seed, jobs=jobs
        )
        outcome.merge(random_part)
        return _finish_sweep("duality", outcome.checked, outcome.failures)
    if args.family == "bipartite":
        instances = sweeps.exhaustive_hypergraphs()
        instances += sweeps.random_reduction_hypergraphs(args.random, seed=args.seed)
        outcome = sweeps.bipartite_equivalence_sweep(instances, jobs=jobs)
        return _finish_sweep("bipartite", outcome.checked, outcome.failures)
    instances = sweeps.exhaustive_graphs(args.n_max)
    instances += sweeps.random_reduction_graphs(args.random, seed=args.seed)
    outcome = sweeps.cobipartite_equivalence_sweep(instances, jobs=jobs)
    return _finish_sweep("cobipartite", outcome.checked, outcome.failures)


# ---- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grundy", description="Grundy dominating sequence toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute gamma_gr of a graph file")
    p.add_argument("path")
    p.add_argument("--method", choices=["auto", "exact", "chain", "cochain"], default="auto")
    p.add_argument("--budget", type=int, default=None, help="node budget for the exact solver")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a sequence file against a graph file")
    p.add_argument("graph")
    p.add_argument("sequence")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="build a hardness gadget from an instance")
    p.add_argument("path")
    p.add_argument("--to", choices=["bipartite", "cobipartite"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roles", default=None, help="provenance sidecar path (default: OUT.roles)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="generate instances")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    pc = gen_sub.add_parser("chain")
    pc.add_argument("--profile", required=True, help="e.g. 1,2,1x2,1,3 (X sizes x Y sizes)")
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_gen, kind="chain")
    pg = gen_sub.add_parser("graph")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--p", type=float, required=True)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_gen, kind="graph")
    ph = gen_sub.add_parser("hypergraph")
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--m", type=int, required=True)
    ph.add_argument("--seed", type=int, required=True)
    ph.add_argument("--out", required=True)
    ph.set_defaults(func=cmd_gen, kind="hypergraph")

    p = sub.add_parser("bench", help="time the chain pipeline across sizes")
    p.add_argument(
        "--sizes",
        type=_positive_int_list,
        default=",".join(str(n) for n in bench_mod.DEFAULT_SIZES),
        help="comma-separated instance sizes",
    )
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument(
        "--shape",
        default=bench_mod.DEFAULT_SHAPE,
        help="profile scaling spec; the '*' part absorbs growth",
    )
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="run an equivalence sweep")
    p.add_argument("family", choices=["chain", "duality", "bipartite", "cobipartite"])
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--random", type=int, default=None)
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--max-part", type=int, default=3)
    p.add_argument("--max-vertices", type=int, default=16)
    p.add_argument("--random-vertices", type=int, default=18)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=5)
    p.set_defaults(func=cmd_sweep)
    return parser


_SWEEP_RANDOM_DEFAULTS = {"chain": 1000, "duality": 500, "bipartite": 200, "cobipartite": 200}
_SWEEP_NMAX_DEFAULTS = {"duality": 6, "cobipartite": 5}
_SWEEP_SEED_DEFAULTS = {"chain": 1, "duality": 11, "bipartite": 23, "cobipartite": 37}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        if args.random is None:
            args.random = _SWEEP_RANDOM_DEFAULTS[args.family]
        if args.n_max is None:
            args.n_max = _SWEEP_NMAX_DEFAULTS.get(args.family, 6)
        if args.seed is None:
            args.seed = _SWEEP_SEED_DEFAULTS[args.family]
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceededError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NotChainGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METHOD
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GrundyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
