"""Timing harness for the chain pipeline's linear-scaling claim.

The benchmark scales one fixed profile shape: four X classes of which the
first absorbs all growth, four singleton Y classes. Edge count then grows
linearly with the vertex count, so recognition plus solving should double
in wall time when the instance doubles.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .chain import grundy_chain, recognize_chain
from .errors import InputError, SizeCapError
from .generators import ChainProfile, chain_from_profile, parse_profile
from .graph import MAX_FILE_VERTICES

__all__ = ["BenchRow", "bench_profile", "parse_shape", "run_bench", "doubling_ratios"]

DEFAULT_SIZES = tuple(2**e for e in range(15, 21))

# one '*' part absorbs all growth so the edge count stays linear in n
DEFAULT_SHAPE = "*,1,1,1x1,1,1,1"

# run_bench holds every instance at once: at most this many vertices in all
MAX_TOTAL_VERTICES = 1 << 23

# run_bench keeps every timing, a float and its list slot (32 bytes): 32 MB at the cap
MAX_TIMED_RUNS = 10**6


@dataclass(frozen=True)
class BenchRow:
    n: int
    median_ms: float
    times_ms: tuple[float, ...]
    gamma: int


def parse_shape(spec: str) -> tuple[tuple[int | None, ...], tuple[int | None, ...]]:
    """Parse a scaling shape like '*,1,1,1x1,1,1,1': a profile (see
    generators.parse_profile) with exactly one '*' entry, the part that
    grows to reach the requested vertex count.
    """
    sizes_x, sizes_y = parse_profile(spec)
    stars = (sizes_x + sizes_y).count(None)
    if stars != 1:
        raise InputError(f"shape needs exactly one '*' part, got {stars}")
    return sizes_x, sizes_y


def bench_profile(n: int, shape: str = DEFAULT_SHAPE) -> ChainProfile:
    """Scale a shape to n total vertices by growing its '*' part."""
    sizes_x, sizes_y = parse_shape(shape)
    fixed = sum(s for s in sizes_x + sizes_y if s is not None)
    grow = n - fixed
    if grow < 1:
        raise InputError(f"shape {shape!r} needs n > {fixed}, got {n}")
    return ChainProfile(
        tuple(grow if s is None else s for s in sizes_x),
        tuple(grow if s is None else s for s in sizes_y),
    )


def _solve_once(g) -> int:
    # The outputs are freed before this returns, inside the timed region,
    # so no run pays for releasing the previous run's structures.
    return len(grundy_chain(recognize_chain(g)))


def run_bench(sizes=DEFAULT_SIZES, repeats: int = 5, shape: str = DEFAULT_SHAPE) -> list[BenchRow]:
    """Median wall time of recognize_chain + grundy_chain per size.

    Instances are built once, outside the timed region. Repeats run in
    rounds that time every size once, so a drift in CPU speed lands on all
    sizes alike instead of on one size's whole block of repeats; the
    doubling ratios compare times taken close together.

    More than graph.MAX_FILE_VERTICES per size, MAX_TOTAL_VERTICES in all
    or MAX_TIMED_RUNS timed runs raise SizeCapError before anything is built.
    """
    for n in sizes:
        if n > MAX_FILE_VERTICES:
            raise SizeCapError(n, MAX_FILE_VERTICES, what="vertices (bench size)")
    total = sum(sizes)
    if total > MAX_TOTAL_VERTICES:
        raise SizeCapError(total, MAX_TOTAL_VERTICES, what="vertices (bench sizes in all)")
    runs = len(sizes) * repeats
    if runs > MAX_TIMED_RUNS:
        raise SizeCapError(runs, MAX_TIMED_RUNS, what="timed runs (bench sizes times repeats)")
    graphs = [chain_from_profile(bench_profile(n, shape)) for n in sizes]
    times: list[list[float]] = [[] for _ in graphs]
    gammas = [0] * len(graphs)
    for _ in range(repeats):
        for i, g in enumerate(graphs):
            start = time.perf_counter()
            gammas[i] = _solve_once(g)
            times[i].append((time.perf_counter() - start) * 1000.0)
    return [
        BenchRow(n, statistics.median(t), tuple(t), gamma)
        for n, t, gamma in zip(sizes, times, gammas)
    ]


def doubling_ratios(rows: list[BenchRow]) -> list[float]:
    """Time ratios between consecutive rows (sizes are assumed to double).

    Each ratio is the median, over the rounds of run_bench, of the two
    sizes' times in the same round. The sizes of one round are timed back
    to back, so a drift in CPU speed from one round to the next cancels
    out of every ratio.
    """
    out = []
    for prev, cur in zip(rows, rows[1:]):
        ratios = [c / p for p, c in zip(prev.times_ms, cur.times_ms) if p > 0]
        out.append(statistics.median(ratios) if ratios else float("inf"))
    return out
