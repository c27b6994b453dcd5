"""Oracles the benchmark checks the library against.

Nothing here imports `grundy.sequences` or `grundy.exact`, so a fault in
the library's own checkers or search engine cannot hide itself:

* `walk` replays a vertex sequence over plain Python sets and rejects an
  illegal step (a vertex that dominates nothing new), a repeated or
  out-of-range vertex, and a sequence that leaves a vertex undominated.
* `longest_sequence` is a memoised brute-force search over dominated sets
  (encoded as bitmasks), with no twin canonicalisation and no early exit:
  every legal move is tried at every state.

Run as a script, this module recomputes the expected Grundy domination
numbers of the random `exact_*` pool graphs and rewrites
`expected_exact.json`:

    python3 perfbench/oracles.py
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

EXPECTED_FILE = Path(__file__).resolve().parent / "expected_exact.json"
RECOMPUTE_COMMAND = "python3 perfbench/oracles.py"


class CheckError(Exception):
    """A program output failed one of the benchmark's checks."""


# ---- sequence walk ----------------------------------------------------------


def walk(n: int, adjacency: Sequence[Sequence[int]], order: Iterable[int]) -> int:
    """Replay a closed-neighbourhood sequence; return its length.

    Raises CheckError on an out-of-range or repeated vertex, on a step that
    dominates no new vertex, and when the finished sequence leaves some
    vertex undominated.
    """
    dominated: set[int] = set()
    taken: set[int] = set()
    length = 0
    for pos, v in enumerate(order):
        if not 0 <= v < n:
            raise CheckError(f"step {pos}: vertex {v} out of range for n={n}")
        if v in taken:
            raise CheckError(f"step {pos}: vertex {v} repeated")
        taken.add(v)
        fresh = set(adjacency[v])
        fresh.add(v)
        fresh -= dominated
        if not fresh:
            raise CheckError(f"step {pos}: vertex {v} dominates nothing new")
        dominated |= fresh
        length += 1
    if len(dominated) != n:
        raise CheckError(f"sequence dominates {len(dominated)} of {n} vertices")
    return length


def walk_edges(n: int, edges: Sequence[Sequence[int]], order: Iterable[int]) -> int:
    """Replay an edge covering sequence; return its length.

    Every edge must add a vertex not covered by the edges before it, and
    the finished sequence must cover all n vertices.
    """
    covered: set[int] = set()
    length = 0
    for pos, j in enumerate(order):
        if not 0 <= j < len(edges):
            raise CheckError(f"step {pos}: edge {j} out of range")
        fresh = set(edges[j]) - covered
        if not fresh:
            raise CheckError(f"step {pos}: edge {j} covers nothing new")
        covered |= fresh
        length += 1
    if len(covered) != n:
        raise CheckError(f"edge sequence covers {len(covered)} of {n} vertices")
    return length


def walk_transversal(n: int, edges: Sequence[Sequence[int]], order: Iterable[int]) -> int:
    """Replay a transversal sequence; return its length.

    Every vertex needs a witnessing edge that contains it and none of the
    vertices before it.
    """
    members = [set(edge) for edge in edges]
    taken: set[int] = set()
    length = 0
    for pos, v in enumerate(order):
        if not 0 <= v < n or v in taken:
            raise CheckError(f"step {pos}: vertex {v} out of range or repeated")
        if not any(v in edge and not edge & taken for edge in members):
            raise CheckError(f"step {pos}: vertex {v} has no witnessing edge")
        taken.add(v)
        length += 1
    return length


def check_length(length: int, expected: int, what: str) -> None:
    if length != expected:
        raise CheckError(f"{what}: length {length}, expected {expected}")


def check_witness(n, adjacency, order, expected_length: int, what: str) -> None:
    """Walk a witness and require the expected length."""
    check_length(walk(n, adjacency, order), expected_length, what)


def check_count(checked: int, expected: int, what: str) -> None:
    if checked != expected:
        raise CheckError(f"{what}: checked {checked} instances, expected {expected}")


# ---- brute-force search -----------------------------------------------------


def longest_sequence(masks: Sequence[int], full: int) -> int:
    """Longest sequence of moves in which every move adds a bit to the state.

    The memo is indexed by the whole state, so `full` must stay small
    (2^20 states take one megabyte).
    """
    unknown = 255
    memo = bytearray([unknown]) * (full + 1)

    def value(state: int) -> int:
        cached = memo[state]
        if cached != unknown:
            return cached
        best = 0
        for mask in masks:
            if mask & ~state:
                candidate = 1 + value(state | mask)
                if candidate > best:
                    best = candidate
        memo[state] = best
        return best

    return value(0)


def grundy_number(n: int, adjacency: Sequence[Sequence[int]]) -> int:
    """Grundy domination number: moves are closed neighbourhoods."""
    masks = []
    for v in range(n):
        mask = 1 << v
        for u in adjacency[v]:
            mask |= 1 << u
        masks.append(mask)
    return longest_sequence(masks, (1 << n) - 1)


def covering_number(n: int, edges: Sequence[Sequence[int]]) -> int:
    """Grundy covering number rho: moves are edges over the vertex set."""
    masks = [sum(1 << v for v in set(edge)) for edge in edges]
    return longest_sequence(masks, (1 << n) - 1)


def transversal_number(n: int, edges: Sequence[Sequence[int]]) -> int:
    """Grundy transversal number tau: moves are vertices over the edge set."""
    masks = [sum(1 << j for j, edge in enumerate(edges) if v in edge) for v in range(n)]
    return longest_sequence(masks, (1 << len(edges)) - 1)


def distinct_edge_hypergraph_count(n_max: int, m_max: int) -> int:
    """Hypergraphs with n <= n_max vertices, m <= m_max distinct non-empty
    edges and no isolated vertex, by inclusion-exclusion over the vertices
    left uncovered."""
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(2 ** (n - j) - 1, m)
        for n in range(1, n_max + 1)
        for m in range(1, m_max + 1)
        for j in range(n + 1)
    )


# ---- expected values for the random pool ------------------------------------

# (family, edge probability, vertex counts cycled over, pool size)
POOL_SPEC = (
    ("sparse", 0.1, (18, 19, 20), 24),
    ("dense", 0.2, (18, 19, 20), 16),
    ("dense", 0.3, (18, 19, 20), 16),
    ("dense", 0.5, (18, 19, 20), 16),
)


def edge_digest(edges: Iterable[tuple[int, int]]) -> str:
    text = ";".join(f"{u},{v}" for u, v in sorted(edges))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pool_entries() -> list[dict]:
    """The pool's generator parameters: one seed per graph."""
    entries = []
    for family, p, sizes, count in POOL_SPEC:
        for i in range(count):
            seed = 1000 * round(p * 10) + i + 1
            entries.append({"family": family, "n": sizes[i % len(sizes)], "p": p, "seed": seed})
    return entries


def load_expected() -> list[dict]:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)["graphs"]


def _recompute() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from grundy.generators import random_graph

    graphs = []
    for entry in pool_entries():
        g = random_graph(entry["n"], entry["p"], entry["seed"])
        entry.update(
            edges=g.edge_count,
            digest=edge_digest(g.edges()),
            gamma=grundy_number(g.n, g.adjacency),
        )
        graphs.append(entry)
        print(entry, flush=True)
    doc = {
        "command": RECOMPUTE_COMMAND,
        "oracle": "oracles.grundy_number (memoised search over dominated sets, "
        "no twin canonicalisation, no early exit)",
        "graphs": graphs,
    }
    with open(EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    _recompute()
