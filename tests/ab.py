"""A/B benchmark: perfbench's end-to-end metrics on two source trees.

    python tests/ab.py OLD_TREE NEW_TREE --workloads W,... --pairs N --seconds S --out BENCH_x.json
        [--what TEXT] [--claim TEXT]

OLD_TREE (the parent) and NEW_TREE (the change) are checkouts holding
`src` and `perfbench`. Pair i of a workload runs

    python3 perfbench/run.py --workload W --seed i --seconds S

once per tree, each time in a fresh temporary directory holding a copy of
that tree's `src` and `perfbench`; odd seeds run the parent first, even
seeds the change. Each copy is deleted after its run, and any process the
run left behind is killed with its process group.

The output has the layout of the committed BENCH_*.json files: `what`,
`how`, `machine`, `claim`, and for each workload the pair count, each
side's attempted and failed operations and correctness, and for each
end-to-end metric of this repository's BENCHMARK.json its `better`
direction, both sides' runs and medians, the parent's quartiles, the
change in percent, the pairs the change won and a verdict against the
metric's bound. The file is rewritten after every pair, so an interrupted
run keeps what it measured. The script is opt-in: pytest does not collect
it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics(benchmark: Path = ROOT / "BENCHMARK.json") -> dict[str, dict]:
    """name -> {"better", "bound"} for each end-to-end metric."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: {"better": m["better"], "bound": m["bound"]} for m in spec["end_to_end"]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from a fresh copy of tree; its printed JSON result."""
    work = Path(tempfile.mkdtemp(prefix="ab-"))
    proc = None
    try:
        shutil.copytree(tree / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(
            tree / "perfbench", work / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out")
        )
        argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
        proc = subprocess.Popen(
            argv + ["--seconds", str(seconds)],
            cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        out, err = proc.communicate()
        lines = out.strip().splitlines()
        if not lines:
            code = proc.returncode
            raise RuntimeError(f"{tree} {workload} seed {seed}: no result (exit {code}): {err.strip()}")
        return json.loads(lines[-1])
    finally:
        if proc is not None:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        shutil.rmtree(work, ignore_errors=True)


def _round(x: float) -> float:
    return round(x, 6)


def summarize_metric(better: str, bound: float, parent: list[float], change: list[float]) -> dict:
    """Compare one metric's runs, pair i being (parent[i], change[i]).

    The verdict is "unresolved" when the parent's quartile spread exceeds
    the bound relative to its median, unless every change run beats every
    parent run; otherwise "regression" when the change's median is worse
    than the parent's by more than the bound, else "within bound"."""
    sign = 1 if better == "lower" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    worse = sign * (change_median - parent_median) / parent_median
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (q3 - q1) / parent_median > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "regression" if worse > bound else "within bound"
    return {
        "better": better,
        "parent_median": _round(parent_median),
        "parent_quartiles": [_round(q1), _round(q3)],
        "change_median": _round(change_median),
        "change_vs_parent_pct": round(100 * (change_median - parent_median) / parent_median, 2),
        "change_better_pairs": sum(sign * c < sign * p for p, c in zip(parent, change)),
        "verdict": verdict,
        "parent_runs": [_round(x) for x in parent],
        "change_runs": [_round(x) for x in change],
    }


def summarize(parent_runs: list[dict], change_runs: list[dict], metrics: dict[str, dict]) -> dict:
    """One workload's entry from the perfbench results of its pairs, for
    the metrics that every run reported."""
    sides = {"parent": parent_runs, "change": change_runs}
    entry = {"pairs": len(parent_runs), "metrics": {}}
    for name, spec in metrics.items():
        if all(name in run["metrics"] for run in parent_runs + change_runs):
            values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in sides.items()}
            entry["metrics"][name] = summarize_metric(
                spec["better"], spec["bound"], values["parent"], values["change"]
            )
    for key in ("attempted", "failed"):
        entry[key] = {side: sum(run[key] for run in runs) for side, runs in sides.items()}
    entry["correct"] = {side: all(run["correct"] for run in runs) for side, runs in sides.items()}
    return entry


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--workloads", required=True, help="comma-separated perfbench workload names")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="perfbench end-to-end metrics, parent vs change")
    parser.add_argument("--claim", default="none")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    for tree in (args.old_tree, args.new_tree):
        if not (tree / "src").is_dir() or not (tree / "perfbench").is_dir():
            parser.error(f"{tree} holds no src and perfbench")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = end_to_end_metrics()
    workloads = args.workloads.split(",")
    trees = {"parent": args.old_tree, "change": args.new_tree}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    cores = len(os.sched_getaffinity(0))
    report = {
        "what": args.what,
        "how": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}, each side from a "
            f"fresh copy of its tree's src and perfbench; seeds 1-{args.pairs}, odd seeds run the parent "
            "first, even seeds the change first (tests/ab.py)"
        ),
        "machine": f"{cores} cores, {platform.machine()}, Python {platform.python_version()}",
        "claim": args.claim,
        "workloads": {},
    }
    for seed in range(1, args.pairs + 1):
        for workload in workloads:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], workload, seed, args.seconds)
                runs[workload][side].append(result)
                op = result["metrics"].get("op_ms", {}).get("value")
                print(f"ab: {workload} seed {seed} {side} op_ms={op}", file=sys.stderr)
            if seed >= 2:
                pairs = runs[workload]
                report["workloads"][workload] = summarize(pairs["parent"], pairs["change"], metrics)
        if seed >= 2:
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
