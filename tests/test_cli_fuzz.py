"""Arbitrary small files through `solve`, `verify` and `reduce`, and
arbitrary option values through `gen`, `bench` and `sweep`.

Whatever the bytes or values, the command line must end in one of its exit
codes (0 success, 2 input, 3 size or budget cap, 4 verification, 5 method)
and never in an uncaught exception. Header counts are mostly tiny, so the
exact search stays quick, but some sit past a cap, where nothing sized by
them may be built: each command runs under address_space_cap(), and one
that runs out of memory fails the test with its argv and input files.
Option values are small legal ones, or sit just past a limit, far past
it, or are no integer at all; a legal draw never asks for a slow run.
"""
from __future__ import annotations

import itertools
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from grundy.bench import MAX_TIMED_RUNS
from grundy.cli import main
from grundy.exact import MAX_SEARCH_SIZE
from grundy.sweeps import MAX_RANDOM

from .conftest import address_space_cap

EXIT_CODES = {0, 2, 3, 4, 5}

# tiny counts, the exact search's size bound and one past it, a graph too
# large for a quadratic construction, and a count past the file header's cap
BOUNDS = [MAX_SEARCH_SIZE, MAX_SEARCH_SIZE + 1]
counts = st.one_of(st.integers(0, 7), st.sampled_from(BOUNDS + [3000, (1 << 22) + 1]))
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
    n = draw(st.one_of(st.integers(1, 8), st.sampled_from(BOUNDS + [3000])))
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


HUGE = str(10**30)
not_integers = st.sampled_from(["x", "1.5", "", "2e3", "0x10", "--", HUGE + ".0"])


def bad_integers(minimum=None, cap=None):
    """A value below an option's minimum, past its cap, far past either, or
    no integer at all."""
    bad = [str(-int(HUGE)), "-1"] + ([str(minimum - 1)] if minimum is not None else [])
    if cap is not None:
        bad += [str(cap + 1), HUGE]
    return st.one_of(st.sampled_from(bad), not_integers)


def integer_option(small, minimum=None, cap=None):
    """Half the time a small legal value, otherwise a bad one."""
    return st.one_of(small.map(str), bad_integers(minimum, cap))


class_sizes = st.lists(st.integers(1, 3), min_size=1, max_size=3)


@st.composite
def profiles(draw) -> str:
    """An 'AxB' profile: small and well formed half the time, otherwise
    past the vertex cap or mangled."""
    x = draw(class_sizes)
    good = ",".join(map(str, x)) + "x" + ",".join(map(str, draw(st.permutations(x))))
    return draw(st.one_of(
        st.just(good),
        st.sampled_from([
            "4194304x1", HUGE + "x1", "1,2x1", "0x1", "-1x1", "1x", "x", "", "1xx1", "1x1x1",
            "1,,1x1,1", "1.5x1", "*x1", "*,1x1,1", " 1 x 1 ", "--",
        ]),
    ))


shapes = st.sampled_from(
    ["*,1,1,1x1,1,1,1", "*x1", "1,*x2,1", "1x1", "*x*", "**x1", "x", "", "*,0x1", "*x" + HUGE, "--"]
)
small_sizes = st.lists(st.integers(8, 64), min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))
bench_sizes = st.one_of(
    small_sizes,
    st.sampled_from(["0", "-1", "x", "1", "4194305", "4194304,4194304,1", HUGE, "8,,16", ","]),
)

# each family's options as (small legal values, minimum, cap), None where
# there is no cap; the small values keep a sweep to milliseconds
SWEEP_OPTIONS = {
    "chain": {
        "max-k": (st.integers(1, 2), 1, 4),
        "max-part": (st.integers(1, 2), 1, 5),
        "max-vertices": (st.integers(1, 6), 1, None),
        "random": (st.integers(0, 2), 0, MAX_RANDOM),
        "random-vertices": (st.integers(2, 6), 2, None),
    },
    "duality": {
        "n-max": (st.integers(1, 3), 1, 7),
        "m-max": (st.integers(1, 3), 1, 5),
        "random": (st.integers(0, 3), 0, MAX_RANDOM),
    },
    "bipartite": {"random": (st.integers(0, 2), 0, MAX_RANDOM)},
    "cobipartite": {
        "n-max": (st.integers(1, 4), 1, 7),
        "random": (st.integers(0, 2), 0, MAX_RANDOM),
    },
}
seeds = st.one_of(st.integers(-(2**70), 2**70).map(str), not_integers)


@st.composite
def option_lines(draw, tmp_path):
    """One gen, bench or sweep argv, each value passed as --NAME=VALUE so a
    leading '-' stays a value."""
    out = f"--out={tmp_path / 'out.graph'}"
    command = draw(st.sampled_from(["gen chain", "gen graph", "gen hypergraph", "bench", "sweep"]))
    if command == "gen chain":
        return ["gen", "chain", f"--profile={draw(profiles())}", out]
    if command == "gen graph":
        p = draw(st.sampled_from(["0", "0.3", "1", "-0.1", "1.5", "nan", "inf", "-inf", "x", "--"]))
        n = draw(integer_option(st.integers(0, 12), 0, 4096))
        return ["gen", "graph", f"--n={n}", f"--p={p}", f"--seed={draw(seeds)}", out]
    if command == "gen hypergraph":
        n, m = (draw(integer_option(st.integers(2, 6), 2, 2048)) for _ in "nm")
        return ["gen", "hypergraph", f"--n={n}", f"--m={m}", f"--seed={draw(seeds)}", out]
    if command == "bench":
        # without --sizes the bench would time its default 2^15..2^20 vertices
        argv = ["bench", f"--sizes={draw(bench_sizes)}", f"--shape={draw(shapes)}"]
        if draw(st.booleans()):
            argv.append(f"--repeats={draw(integer_option(st.integers(1, 2), 1, MAX_TIMED_RUNS))}")
        if draw(st.booleans()):
            argv.append("--machine")
        return argv
    family = draw(st.sampled_from(sorted(SWEEP_OPTIONS)))
    options = SWEEP_OPTIONS[family]
    # every option is given, since the defaults make a sweep of seconds;
    # none, one or two of them are bad
    broken = draw(st.sets(st.sampled_from(sorted(options)), max_size=2))
    argv = ["sweep", family]
    for name, (small, minimum, cap) in options.items():
        value = draw(bad_integers(minimum, cap) if name in broken else small.map(str))
        argv.append(f"--{name}={value}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(seeds)}")
    # no worker pool starts: --jobs is absent, 1 or refused
    jobs = draw(st.sampled_from([None, "1", "0", "-1", "x"]))
    return argv if jobs is None else argv + [f"--jobs={jobs}"]


def assert_ends_in_an_exit_code(argv, capsys):
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


fuzz_settings = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz_settings
@given(data=st.data())
def test_every_file_ends_in_an_exit_code(tmp_path, capsys, data):
    assert_ends_in_an_exit_code(data.draw(command_lines(tmp_path), label="argv"), capsys)


@settings(fuzz_settings, max_examples=150)
@given(data=st.data())
def test_every_option_ends_in_an_exit_code(tmp_path, capsys, data):
    assert_ends_in_an_exit_code(data.draw(option_lines(tmp_path), label="argv"), capsys)
