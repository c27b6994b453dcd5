"""Differential check: do two source trees give the same outputs?

    python tests/diffcheck.py OLD_SRC NEW_SRC COUNT [--ignore nodes] [--expect-changed FAMILY]...

OLD_SRC and NEW_SRC are directories holding a `grundy` package (a
checkout's `src`). Each tree is loaded in its own process, which runs the
same seeded calls, COUNT seeds per family, and prints one JSON line per
outcome: its family, a label naming the call and its input, and the
value, witness order and nodes_explored, or the error class and message.
The families are G(n, p) with n <= 16, `gnp_large` (COUNT // 10 graphs
G(n, p) with n = 17-20 and p in {0.1, 0.2, 0.3, 0.5}, each solved with
and without a budget of 20,000 nodes), renamed twin blow-ups, renamed
chain profiles and their complements, `walk` (quick_verify,
check_closed_neighborhood_sequence and is_dominating_sequence on seeded
permutations and legal orders of shared-row chain graphs and G(n, p),
each also with -1, n or a repeated entry inserted), both gadgets, cover,
transversal, rho_tau_values, `caps` (inputs at and past the exact
search's size bound of 64 and past the gadget caps), and `solve` stdout
(minus time_ms), stderr and exit code for every --method on graph files
(`solve_caps` for the paths of `caps`). The `solve` family also runs
`verify`, with and without --machine, on each file with the witness
`solve --machine` printed and with that witness's last entry repeated.
The `cli_args` family, a fixed list whatever COUNT is, compares the exit
code, stdout and stderr of `sweep`, `gen` and `bench` with each option
just past its limit or no integer, and of three small legal sweeps, the
last the whole exhaustive bipartite family.

Calls of grundy_cochain (and `solve --method cochain`) on a graph with a
universal vertex form their own families, `cochain_universal` and
`solve_cochain_universal`. Differences are printed by family; those in a
family named by --expect-changed are listed separately and do not fail
the check. The exit status is 1 on any other difference or when a tree's
run fails, and 2 when the two trees did not run the same calls.

`--ignore nodes` leaves nodes_explored out, for changes that re-pin only
node counts. The script is opt-in: pytest does not collect it.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter


# The functions below import grundy when called: _dump puts the tree to
# check on sys.path first.


def _permutation(n, rng):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _shuffled(g, rng):
    from grundy import Graph

    perm = _permutation(g.n, rng)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _walk_orders(g, rng):
    """A seeded permutation of g's vertices, the legal order that keeps each
    of its vertices with a non-empty footprint, and each of the two with -1,
    n or a repeated entry inserted at a seeded position."""
    perm = _permutation(g.n, rng)
    legal, dominated = [], set()
    for v in perm:
        closed = {v, *g.neighbors(v)}
        if not closed <= dominated:
            legal.append(v)
            dominated |= closed
    orders = [perm, legal]
    for base in (perm, legal):
        for extra in (-1, g.n, base[rng.next_below(len(base))] if base else 0):
            order = list(base)
            order.insert(rng.next_below(len(order) + 1), extra)
            orders.append(order)
    return orders


def _blow_up(base, sizes, closed):
    """Replace vertex i of base by sizes[i] twins, a clique when closed[i]."""
    from grundy import Graph

    ids, start = [], 0
    for size in sizes:
        ids.append(range(start, start + size))
        start += size
    edges = [(a, b) for i in range(base.n) if closed[i] for a in ids[i] for b in ids[i] if a < b]
    edges += [(a, b) for u, v in base.edges() for a in ids[u] for b in ids[v]]
    return Graph.from_edges(start, edges)


def _outcome(call, ignore_nodes=False):
    try:
        result = call()
    except Exception as exc:  # any error, expected or not, is an outcome to compare
        return ["error", type(exc).__name__, str(exc)]
    if hasattr(result, "best_length"):
        witness = getattr(result.best_sequence, "order", result.best_sequence)
        nodes = None if ignore_nodes else result.nodes_explored
        return [result.best_length, list(witness), nodes]
    if hasattr(result, "x_parts"):
        return [list(map(list, result.x_parts)), list(map(list, result.y_parts))]
    if hasattr(result, "order"):
        return list(result.order)
    if isinstance(result, tuple) and len(result) == 2 and hasattr(result[1], "order"):
        return [result[0], list(result[1].order)]
    if hasattr(result, "target"):
        return [result.target.n, list(result.target.edges()), list(map(list, result.roles))]
    return result


def _universal(g) -> bool:
    return any(len(row) == g.n - 1 for row in g.adjacency)


def _graph_cases(count):
    """Yield (family, label, graph) for the graph families."""
    from grundy.generators import XorShift64Star, chain_from_profile, random_chain_profile, random_graph

    rng = XorShift64Star(20231)
    for seed in range(count):
        yield "gnp", f"G({1 + seed % 16}, seed {seed})", random_graph(1 + seed % 16, rng.next_float(), seed)
    for seed in range(count):
        k = 1 + rng.next_below(5)
        base = random_graph(k, rng.next_float(), seed)
        sizes = [1 + rng.next_below(3) for _ in range(k)]
        closed = [bool(rng.next_bit()) for _ in range(k)]
        yield "twins", f"blow-up seed {seed}", _shuffled(_blow_up(base, sizes, closed), rng)
    for seed in range(count):
        g = chain_from_profile(random_chain_profile(18, seed))
        yield "chain", f"chain profile seed {seed}", _shuffled(g, rng) if seed % 3 else g


# each sweep option's (minimum, cap); None where it has none
SWEEP_LIMITS = {
    "chain": {"max-k": (1, 4), "max-part": (1, 5), "max-vertices": (1, None), "random": (0, 100000),
              "random-vertices": (2, None), "seed": (None, None)},
    "duality": {"n-max": (1, 7), "m-max": (1, 5), "random": (0, 100000), "seed": (None, None)},
    "bipartite": {"random": (0, 100000), "seed": (None, None)},
    "cobipartite": {"n-max": (1, 7), "random": (0, 100000), "seed": (None, None)},
}


def _cli_args(out: str) -> list[list[str]]:
    """The argv of the cli_args family; gen writes to out."""
    argvs = []
    for family, options in SWEEP_LIMITS.items():
        for option, (minimum, cap) in options.items():
            values = [] if minimum is None else [str(minimum - 1)]
            values += ([] if cap is None else [str(cap + 1)]) + ["x"]
            argvs += [["sweep", family, f"--{option}={value}"] for value in values]
        argvs += [["sweep", family, "--jobs", jobs] for jobs in ("0", "x")]
    argvs += [
        ["gen", "graph", "--n", "4097", "--p", "0.5", "--seed", "1", "--out", out],
        ["gen", "hypergraph", "--n", "3", "--m", "2049", "--seed", "1", "--out", out],
        ["gen", "chain", "--profile", "4194304x1", "--out", out],
        ["bench", "--sizes", "0"],
        ["bench", "--sizes", "4194305"],
        ["sweep", "duality", "--n-max", "2", "--m-max", "2", "--random", "2"],
        ["sweep", "cobipartite", "--n-max", "3", "--random", "1", "--jobs", "1"],
        ["sweep", "bipartite", "--random", "2", "--jobs", "1"],
    ]
    return argvs


# the families whose outcome is [exit code, stdout, stderr]
CLI_FAMILIES = {"solve", "solve_caps", "solve_cochain_universal", "cli_args"}

# grundy.exact.MAX_SEARCH_SIZE; a literal, so that every tree runs the same calls
SEARCH_BOUND = 64


def _run_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _verify_orders(solve_stdout: str) -> list[tuple[str, list[str]]]:
    """The witness `solve --machine` printed and the same witness with its
    last entry repeated, or nothing when it printed none."""
    for line in solve_stdout.splitlines():
        if line.startswith("witness="):
            order = line[len("witness="):].split()
            return [("witness", order), ("witness with its last entry repeated", order + order[-1:])]
    return []


def _dump(src: str, count: int, ignore_nodes: bool) -> None:
    sys.path.insert(0, src)
    import grundy

    if not grundy.__file__.startswith(os.path.join(src, "grundy")):
        raise SystemExit(f"imported {grundy.__file__}, not the package under {src}")
    from grundy import cli
    from grundy.exact import rho_tau_values
    from grundy.generators import (
        XorShift64Star,
        chain_from_profile,
        random_chain_profile,
        random_graph,
        random_hypergraph,
    )
    from grundy.sequences import check_closed_neighborhood_sequence, is_dominating_sequence, quick_verify

    def emit(family, label, call):
        print(json.dumps([family, label, _outcome(call, ignore_nodes)]))

    files = []
    for family, label, g in _graph_cases(count):
        emit(family, "exact " + label, lambda: grundy.grundy_domination_exact(g))
        emit(family, "exact budget 5 " + label, lambda: grundy.grundy_domination_exact(g, node_budget=5))
        emit(family, "recognize " + label, lambda: grundy.recognize_chain(g))
        emit(family, "chain " + label, lambda: grundy.grundy_chain(grundy.recognize_chain(g)))
        emit(family, "alpha " + label, lambda: grundy.independence_number_exact(g))
        co = grundy.complement(g)
        co_family = "cochain_universal" if _universal(co) else "cochain"
        emit(co_family, "cochain of the complement of " + label, lambda: grundy.grundy_cochain(co))
        emit("cochain_universal" if _universal(g) else "cochain", "cochain " + label, lambda: grundy.grundy_cochain(g))
        if g.n <= 8:
            gadget = grundy.graph_to_cobipartite(g)
            emit("gadgets", "co-bipartite gadget " + label, lambda: gadget)
            emit("gadgets", "exact co-bipartite gadget " + label, lambda: grundy.grundy_domination_exact(gadget.target))
        if len(files) < count // 4 and g.n:
            files.append(("solve", label, g))
            files.append(("solve", "complement of " + label, co))

    # the sizes perfbench's exact workloads run, up to 20 vertices
    for seed in range(count // 10):
        n, p = 17 + seed % 4, (0.1, 0.2, 0.3, 0.5)[seed // 4 % 4]
        g = random_graph(n, p, seed)
        label = f"G({n}, {p}, seed {seed})"
        emit("gnp_large", "exact " + label, lambda: grundy.grundy_domination_exact(g))
        emit("gnp_large", "exact budget 20000 " + label, lambda: grundy.grundy_domination_exact(g, node_budget=20_000))

    rng = XorShift64Star(20233)
    for seed in range(count):
        shared = chain_from_profile(random_chain_profile(18, seed))
        gnp = random_graph(1 + seed % 16, rng.next_float(), seed)
        for kind, g in (("shared-row chain", shared), (f"G({gnp.n}, seed {seed})", gnp)):
            for order in _walk_orders(g, rng):
                label = f"{kind} seed {seed} order {order}"
                emit("walk", "quick_verify " + label, lambda: list(quick_verify(g, order)))
                emit("walk", "footprints " + label, lambda: check_closed_neighborhood_sequence(g, order).footprints)
                emit("walk", "dominating " + label, lambda: is_dominating_sequence(g, order))

    rng = XorShift64Star(20232)
    for seed in range(count):
        h = random_hypergraph(2 + seed % 9, 2 + rng.next_below(9), seed)
        label = f"H({h.n}, {h.m}, seed {seed})"
        emit("hypergraphs", "cover " + label, lambda: grundy.grundy_cover_exact(h))
        emit("hypergraphs", "transversal " + label, lambda: grundy.grundy_transversal_exact(h))
        emit("hypergraphs", "rho_tau " + label, lambda: list(rho_tau_values(h)))
        if h.n <= 4 and h.m <= 4:
            gadget = grundy.hypergraph_to_bipartite(h)
            emit("gadgets", "bipartite gadget " + label, lambda: gadget)
            emit("gadgets", "exact bipartite gadget " + label, lambda: grundy.grundy_domination_exact(gadget.target))

    Graph, Hypergraph = grundy.Graph, grundy.Hypergraph
    for n in range(SEARCH_BOUND, SEARCH_BOUND + max(2, count // 100)):
        path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        wide = Hypergraph(2, [(0, 1)] * n)
        emit("caps", f"exact P{n}", lambda: grundy.grundy_domination_exact(path))
        emit("caps", f"alpha P{n}", lambda: grundy.independence_number_exact(path))
        emit("caps", f"cover m={n}", lambda: grundy.grundy_cover_exact(wide))
        emit("caps", f"transversal m={n}", lambda: grundy.grundy_transversal_exact(wide))
        files.append(("solve_caps", f"P{n}", path))
    empty = Graph.from_edges(1025, [])
    emit("caps", "co-bipartite gadget of 1025 isolated vertices", lambda: grundy.graph_to_cobipartite(empty))
    many = Hypergraph(1025, [(v,) for v in range(1025)])
    emit("caps", "bipartite gadget of 1025 singletons", lambda: grundy.hypergraph_to_bipartite(many))

    with tempfile.TemporaryDirectory() as tmp:
        for i, (file_family, label, g) in enumerate(files):
            path = os.path.join(tmp, f"{i}.graph")
            grundy.save_graph(g, path)
            for method in ("auto", "exact", "chain", "cochain"):
                for extra in ([], ["--machine"], ["--budget", "3"]):
                    universal = method == "cochain" and _universal(g)
                    family = "solve_cochain_universal" if universal else file_family
                    code, out, err = _run_cli(cli, ["solve", path, "--method", method, *extra])
                    stdout = "".join(line for line in out.splitlines(True) if not line.startswith("time_ms="))
                    print(json.dumps([family, f"solve --method {method} {' '.join(extra)} {label}", [code, stdout, err]]))
            for name, order in _verify_orders(_run_cli(cli, ["solve", path, "--machine"])[1]):
                seq_path = os.path.join(tmp, f"{i}.seq")
                with open(seq_path, "w") as f:
                    f.write(" ".join(order) + "\n")
                for extra in ([], ["--machine"]):
                    outcome = list(_run_cli(cli, ["verify", path, seq_path, *extra]))
                    print(json.dumps([file_family, f"verify {' '.join(extra)} {name} of {label}", outcome]))
        out = os.path.join(tmp, "gen.out")
        for argv in _cli_args(out):
            label = " ".join(argv).replace(out, "OUT")
            print(json.dumps(["cli_args", label, list(_run_cli(cli, argv))]))


def _run_tree(src: str, count: int, ignore_nodes: bool) -> list[list]:
    """The outcomes of one tree, from a fresh interpreter that imports it."""
    code = f"import diffcheck; diffcheck._dump({os.path.abspath(src)!r}, {count}, {ignore_nodes})"
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=here)
    if done.returncode:
        sys.exit(f"{src}: the check itself failed\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", metavar="OLD_SRC")
    parser.add_argument("new_src", metavar="NEW_SRC")
    parser.add_argument("count", metavar="COUNT", type=int, help="seeds per family")
    parser.add_argument("--ignore", choices=["nodes"], action="append", default=[])
    parser.add_argument("--expect-changed", action="append", default=[], metavar="FAMILY")
    args = parser.parse_args(argv)
    ignore_nodes = "nodes" in args.ignore
    old = _run_tree(args.old_src, args.count, ignore_nodes)
    new = _run_tree(args.new_src, args.count, ignore_nodes)
    if [row[:2] for row in old] != [row[:2] for row in new]:
        print("the two trees ran different calls", file=sys.stderr)
        return 2
    totals = Counter(row[0] for row in old)
    unexpected, expected = [], []
    for (family, label, before), (_, _, after) in zip(old, new):
        if before != after:
            (expected if family in args.expect_changed else unexpected).append((family, label, before, after))
    for title, diffs in (("differences", unexpected), ("expected changes", expected)):
        by_family = Counter(d[0] for d in diffs)
        print(f"{title}: {len(diffs)}", ", ".join(f"{f} {by_family[f]}/{totals[f]}" for f in sorted(by_family)))
        codes = [d for d in diffs if d[0] in CLI_FAMILIES]
        if codes:
            print(f"  exit code changed in {sum(d[2][0] != d[3][0] for d in codes)} of {len(codes)} command lines")
        for family, label, before, after in diffs[:20]:
            print(f"  [{family}] {label}\n    old: {before}\n    new: {after}")
    print(f"outcomes: {len(old)}", ", ".join(f"{f} {totals[f]}" for f in sorted(totals)))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
