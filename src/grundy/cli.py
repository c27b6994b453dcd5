"""Command-line front end: solve, verify, reduce, gen, bench, sweep.

The CLI parses arguments and prints reports. Each limit it applies is
checked in one module: `gen`'s sizes here, file headers in `graph` and
`hypergraph`, gadget sizes in `reductions`, the exact search's cap in
`exact`, bench sizes in `bench`, and sweep option values, the worker pool
and the orbit generator's vertex bound in `sweeps`.

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
from .exact import grundy_domination_exact
from .generators import (
    ChainProfile,
    chain_from_profile,
    parse_profile,
    random_graph,
    random_hypergraph,
)
from .graph import MAX_FILE_VERTICES, load_graph, read_text, save_graph
from .hypergraph import MAX_RANDOM_HYPERGRAPH_SIZE, load_hypergraph, save_hypergraph
from .reductions import format_roles, graph_to_cobipartite, hypergraph_to_bipartite
from .sequences import check_closed_neighborhood_sequence, parse_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4
EXIT_METHOD = 5


def _print_report(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={value}")


# ---- solve -----------------------------------------------------------------


def _chain(g, budget):
    cs = recognize_chain(g)
    return grundy_chain(cs), cs, []


def _cochain(g, budget):
    gamma, seq = grundy_cochain(g)
    return seq, None, [("cochain_classes", gamma - 1)]


def _exact(g, budget):
    result = grundy_domination_exact(g, node_budget=budget)
    return result.best_sequence, None, [("nodes", result.nodes_explored)]


# --method: each solver returns the witness, the chain structure or None,
# and its report pairs. Auto mode takes the first whose class holds the
# graph, in this order; the exact solver takes any graph within its cap.
SOLVERS = {"chain": _chain, "cochain": _cochain, "exact": _exact}


def _solve(g, method: str, budget):
    if method != "auto":
        try:
            return method, *SOLVERS[method](g, budget)
        except IsolatedVertexError as exc:  # only chain recognition raises it
            raise InputError(f"{exc}; the chain solver requires none, use --method exact") from exc
    for name, solve in SOLVERS.items():
        try:
            return name, *solve(g, budget)
        except (NotChainGraphError, IsolatedVertexError):
            pass
        except SizeCapError as exc:  # only the exact solver has a size cap
            raise SizeCapError(
                exc.actual,
                exc.limit,
                what="vertices (not a chain or co-chain graph, and too large for "
                "the exact solver; supported classes: chain, co-chain, or any "
                f"graph with at most {exc.limit} vertices)",
            ) from exc


def cmd_solve(args) -> int:
    g = load_graph(args.path)
    report = [("command", "solve"), ("n", g.n), ("m", g.edge_count)]
    start = time.perf_counter()
    method, seq, cs, details = _solve(g, args.method, args.budget)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    report.append(("method", method))
    report.append(("gamma_gr", len(seq.order)))
    report.append(("witness", " ".join(str(v) for v in seq.order)))
    report += details
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


# random_graph draws once per vertex pair: about 8.4 million draws here
MAX_RANDOM_GRAPH_VERTICES = 1 << 12


def cmd_gen(args) -> int:
    if args.kind == "chain":
        sizes_x, sizes_y = parse_profile(args.profile)
        if None in sizes_x + sizes_y:
            raise InputError(f"gen chain takes no '*' part, got {args.profile!r}")
        total = sum(sizes_x) + sum(sizes_y)
        if total > MAX_FILE_VERTICES:
            # larger than any graph file the reader takes back
            raise SizeCapError(total, MAX_FILE_VERTICES, what="vertices (gen chain)")
        g = chain_from_profile(ChainProfile(sizes_x, sizes_y))
        save_graph(g, args.out)
        summary = [("kind", "chain"), ("n", g.n), ("m", g.edge_count)]
    elif args.kind == "graph":
        if args.n > MAX_RANDOM_GRAPH_VERTICES:
            raise SizeCapError(args.n, MAX_RANDOM_GRAPH_VERTICES, what="vertices (gen graph)")
        g = random_graph(args.n, args.p, args.seed)
        save_graph(g, args.out)
        summary = [("kind", "graph"), ("n", g.n), ("m", g.edge_count)]
    else:
        for count, what in ((args.n, "vertices"), (args.m, "edges")):
            if count > MAX_RANDOM_HYPERGRAPH_SIZE:
                raise SizeCapError(count, MAX_RANDOM_HYPERGRAPH_SIZE, what=f"{what} (gen hypergraph)")
        h = random_hypergraph(args.n, args.m, args.seed)
        save_hypergraph(h, args.out)
        summary = [("kind", "hypergraph"), ("n", h.n), ("m", h.m)]
    _print_report([("command", "gen")] + summary + [("out", args.out)])
    return EXIT_OK


# ---- bench -----------------------------------------------------------------


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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


def cmd_sweep(args) -> int:
    family = sweeps.FAMILIES[args.family]
    outcome = family.run(args.jobs, **{p.name: getattr(args, p.name) for p in family.params})
    failures = outcome.failures
    _print_report([("sweep", family.name), ("checked", outcome.checked), ("failures", len(failures))])
    _print_report(("failure", line) for line in failures[:50])
    return EXIT_OK if outcome.ok else EXIT_VERIFY


# ---- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grundy", description="Grundy dominating sequence toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute gamma_gr of a graph file")
    p.add_argument("path")
    p.add_argument("--method", choices=["auto", "exact", "chain", "cochain"], default="auto")
    p.add_argument(
        "--budget", type=_positive_int, default=None, help="node budget for the exact solver"
    )
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
    p.set_defaults(func=cmd_gen)
    gen_sub = p.add_subparsers(dest="kind", required=True)
    pc = gen_sub.add_parser("chain")
    pc.add_argument("--profile", required=True, help="e.g. 1,2,1x2,1,3 (X sizes x Y sizes)")
    pc.add_argument("--out", required=True)
    pg = gen_sub.add_parser("graph")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--p", type=float, required=True)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--out", required=True)
    ph = gen_sub.add_parser("hypergraph")
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--m", type=int, required=True)
    ph.add_argument("--seed", type=int, required=True)
    ph.add_argument("--out", required=True)

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
    family_sub = p.add_subparsers(dest="family", required=True, metavar="FAMILY")
    for family in sweeps.FAMILIES.values():
        pf = family_sub.add_parser(family.name, help=family.help)
        pf.add_argument(
            "--jobs", type=_positive_int, default=None, help="worker processes, at most the usable CPUs"
        )
        for param in family.params:
            limit = "" if param.cap is None else f", at most {param.cap}"
            pf.add_argument(
                "--" + param.name.replace("_", "-"),
                type=int,
                default=param.default,
                help=f"{param.help} (default {param.default}{limit})",
            )
        pf.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse in Python 3.11 parses --NAME=-- as []
        parser.error("an option's value cannot be '--'")
    try:
        return args.func(args)
    except (BudgetExceededError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NotChainGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METHOD
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, GrundyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
