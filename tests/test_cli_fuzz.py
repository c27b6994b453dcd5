"""Arbitrary small files through `solve`, `verify` and `reduce`.

Whatever the bytes, the command line must end in one of its exit codes
(0 success, 2 input, 3 size or budget cap, 4 verification, 5 method) and
never in an uncaught exception. Header counts are mostly tiny, so the
exact search stays quick, but some sit past a cap, where nothing sized by
them may be built: each command runs under address_space_cap(), and one
that runs out of memory fails the test with its argv and input files.
"""
from __future__ import annotations

import itertools
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from grundy.cli import main

from .conftest import address_space_cap

EXIT_CODES = {0, 2, 3, 4, 5}

# tiny counts, the exact search's cap and one past it, a graph too large
# for a quadratic construction, and a count past the file header's cap
counts = st.one_of(st.integers(0, 7), st.sampled_from([20, 21, 3000, (1 << 22) + 1]))
tokens = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["#", "x", "1.5", "-0", "+1", "99999999999", "é"]),
)
junk = st.lists(tokens, max_size=4).map(" ".join)
numbers = st.lists(st.integers(0, 7), min_size=1, max_size=4).map(lambda xs: " ".join(map(str, xs)))
edge_lines = st.tuples(st.integers(0, 7), st.integers(0, 7)).map("{0[0]} {0[1]}".format)
lines = st.one_of(edge_lines, numbers, junk)


def instance_text(n: int, m: int, body: list[str]) -> bytes:
    return "\n".join([f"{n} {m}", *body, ""]).encode()


@st.composite
def mangled_texts(draw) -> bytes:
    """An 'n m' header and up to eight lines of numbers or junk; m counts
    the lines half the time."""
    body = draw(st.lists(lines, max_size=8))
    m = draw(st.one_of(st.just(len(body)), counts))
    return instance_text(draw(counts), m, body)


@st.composite
def graph_texts(draw) -> bytes:
    """A well-formed graph file whose edges join the first 8 vertices."""
    n = draw(st.one_of(st.integers(1, 8), st.sampled_from([20, 21, 3000])))
    pairs = list(itertools.combinations(range(min(n, 8)), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    return instance_text(n, len(edges), [f"{u} {v}" for u, v in edges])


@st.composite
def hypergraph_texts(draw) -> bytes:
    """A well-formed hypergraph file on up to 6 vertices."""
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6))
    return instance_text(n, len(edges), [" ".join(map(str, sorted(e))) for e in edges])


@st.composite
def wide_hypergraph_texts(draw) -> bytes:
    """A hypergraph file whose edges use only the top few indices of a
    ground set at, just past or far past the header cap, listed once or
    1,600 times."""
    n = draw(st.sampled_from([2048, 2049, 1 << 22]))
    edges = draw(st.lists(st.sets(st.integers(n - 3, n - 1), min_size=1), min_size=1, max_size=4))
    body = [" ".join(map(str, sorted(e))) for e in edges] * draw(st.sampled_from([1, 1600]))
    return instance_text(n, len(body), body)


files = st.one_of(st.binary(max_size=64), mangled_texts(), lines.map(str.encode))


def half_of(good):
    """Half the time a file of the kind a command takes, otherwise anything."""
    return st.booleans().flatmap(lambda take: good if take else files)


graph_files = half_of(graph_texts())
hypergraph_files = half_of(st.one_of(hypergraph_texts(), wide_hypergraph_texts()))
sequence_files = half_of(numbers.map(str.encode))


@st.composite
def command_lines(draw, tmp_path):
    """One command's argv, with its input files written under tmp_path."""
    command = draw(st.sampled_from(["solve", "verify", "reduce"]))
    first = tmp_path / "in.txt"
    if command == "solve":
        first.write_bytes(draw(graph_files))
        argv = ["solve", str(first), "--method", draw(st.sampled_from(["auto", "exact", "chain", "cochain"]))]
        budget = draw(st.none() | st.integers(1, 64))
        if budget is not None:
            argv += ["--budget", str(budget)]
    elif command == "verify":
        first.write_bytes(draw(graph_files))
        second = tmp_path / "sequence.txt"
        second.write_bytes(draw(sequence_files))
        argv = ["verify", str(first), str(second)]
    else:
        target = draw(st.sampled_from(["bipartite", "cobipartite"]))
        first.write_bytes(draw(hypergraph_files if target == "bipartite" else graph_files))
        argv = ["reduce", str(first), "--to", target, "--out", str(tmp_path / "out.graph")]
    if command != "reduce" and draw(st.booleans()):
        argv.append("--machine")
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_file_ends_in_an_exit_code(tmp_path, capsys, data):
    argv = data.draw(command_lines(tmp_path), label="argv")
    out_of_memory = False
    try:
        # every well-formed run needs far less; a tight cap makes each
        # example that runs out of memory fail within a fraction of a
        # second, so hypothesis can shrink it to its smallest input quickly
        with address_space_cap(128 << 20):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except MemoryError:
        # reported below, outside the cap, once the handler has let go of
        # the exception and of the frames holding what was allocated
        out_of_memory = True
    assert not out_of_memory, f"MemoryError from {argv} on input files " + repr(
        {Path(arg).name: Path(arg).read_bytes() for arg in argv if arg.endswith(".txt")}
    )
    err = capsys.readouterr().err
    event(f"{argv[0]} exit {code}")
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if code:
        assert err
