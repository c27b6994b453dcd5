"""Layered benchmark for the grundy library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`
directory. Set-up (imports and input generation) is timed once, cold,
from the first line of this script. The run then repeats whole operations
of the workload until S seconds have passed, checks every output, and
prints one JSON line: `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 each
round also times the calls into every layer, the metrics are the
per-layer ones, and the spans are written to perfbench/out/.
"""
import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("chain_sparse", "chain_dense", "exact_sparse", "exact_dense", "sweep_chain", "sweep_duality")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seed >= 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None):
    """One benchmark run; returns the result object and the span recorder,
    which is None for an untraced run."""
    import workloads

    sizes = sizes or workloads.FULL
    tracer = workloads.Tracer() if trace else None
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    op_seconds: list[float] = []
    peak_rss_mb = None
    try:
        wl = workloads.WORKLOADS[workload](workload, seed, sizes, tracer)
        setup_s = time.perf_counter() - _STARTED
        calibrations = [workloads.calibrate_cores(wl.jobs)]
        loop_start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.next_round()
                output, failed = wl.traced_round(tracer)
            else:
                begin = time.perf_counter()
                output, failed = wl.op()
                op_seconds.append(time.perf_counter() - begin)
            calibrations.append(workloads.calibrate_cores(wl.jobs))
            result["attempted"] += wl.attempts
            result["failed"] += failed
            if peak_rss_mb is None:
                # Read before the first check, whose own sets would count.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wl.check(output)
            if time.perf_counter() - loop_start >= seconds:
                break
    except workloads.CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        result["correct"] = False
        return result, tracer
    extras = {"calibration_ms": [c * 1000.0 for c in calibrations], "setup_raw_s": setup_s}
    if tracer is not None:
        tracer.scales = workloads.speed_scales(calibrations)
        layer = wl.layer_metrics(tracer)
        for name, unit, _ in workloads.PER_LAYER:
            result["metrics"][name] = {"value": layer.get(name, 0), "unit": unit}
        extras["traced_op_ms"] = workloads.rescaled_mean(tracer.raw_round_sums("op"), calibrations) * 1000.0
    else:
        op_s = workloads.rescaled_mean(op_seconds, calibrations)
        values = {
            "setup_s": setup_s * workloads.CALIBRATION_REFERENCE_S / calibrations[0],
            "op_ms": op_s * 1000.0,
            "items_per_s": wl.items / op_s,
            "peak_rss_mb": peak_rss_mb,
        }
        for name, unit, _, _ in workloads.END_TO_END:
            result["metrics"][name] = {"value": values[name], "unit": unit}
        extras["op_raw_ms"] = [t * 1000.0 for t in op_seconds]
    result["extras"] = extras
    return result, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "grundy" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'grundy'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))

    # Raw times and calibrations go to the result file only.
    extras = result.pop("extras", {})
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        result,
        extras=extras,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        python=platform.python_version(),
        cpus=len(os.sched_getaffinity(0)),
    )
    (OUT / f"{stem}.result.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
