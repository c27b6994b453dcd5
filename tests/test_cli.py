import os

import pytest

from grundy import bench as bench_mod
from grundy import cli, sweeps
from grundy.cli import main
from grundy import Graph, Hypergraph, format_graph, load_graph

from .conftest import complete_graph, path_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_dict(out):
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def write_graph(tmp_path, g, name="g.graph"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


P4_CHAIN = Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)])


class TestSolve:
    def test_auto_picks_chain_on_p4(self, tmp_path, capsys):
        path = write_graph(tmp_path, P4_CHAIN)
        code, out, _ = run(capsys, "solve", path, "--machine")
        assert code == 0
        report = machine_dict(out)
        assert report["method"] == "chain"
        assert report["gamma_gr"] == "3"
        assert report["k"] == "2"

    def test_auto_falls_back_to_exact_on_k5(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(5))
        code, out, _ = run(capsys, "solve", path, "--machine")
        assert code == 0
        report = machine_dict(out)
        assert report["method"] == "exact"
        assert report["gamma_gr"] == "1"

    def test_auto_uses_cochain_on_cobipartite(self, tmp_path, capsys, monkeypatch):
        # complement of K_{2,3} has a triangle, so the chain route rejects it;
        # its 4 edges are exactly the fewest a co-chain graph on 5 vertices has
        from grundy import chain, complement
        from .conftest import complete_bipartite

        calls = []
        monkeypatch.setattr(chain, "complement", lambda g: calls.append(g.n) or complement(g))
        path = write_graph(tmp_path, complement(complete_bipartite(2, 3)))
        code, out, _ = run(capsys, "solve", path, "--machine")
        assert code == 0
        report = machine_dict(out)
        assert report["method"] == "cochain"
        assert report["gamma_gr"] == "2"
        assert calls == [5]

    def test_auto_skips_the_complement_of_a_sparse_graph(self, tmp_path, capsys, monkeypatch):
        from grundy import chain, random_graph

        def no_complement(g):
            raise AssertionError("complement built")

        path = write_graph(tmp_path, random_graph(2048, 3 / 2048, 5))
        monkeypatch.setattr(chain, "complement", no_complement)
        code, out, err = run(capsys, "solve", path)
        assert code == 3
        assert out == ""
        assert err.startswith("error: 2048 vertices (not a chain or co-chain graph")

    @pytest.mark.usefixtures("memory_limit")
    def test_cochain_refuses_a_sparse_graph(self, tmp_path, capsys, monkeypatch):
        from grundy import chain

        def no_complement(g):
            raise AssertionError("complement built")

        monkeypatch.setattr(chain, "complement", no_complement)
        path = tmp_path / "sparse.graph"
        path.write_text("200000 1\n0 1\n")
        code, out, err = run(capsys, "solve", str(path), "--method", "cochain")
        assert code == 5
        assert out == ""
        assert err == "error: too few edges for a co-chain graph\n"

    def test_size_cap_exit_code(self, tmp_path, capsys):
        big = Graph.from_edges(25, [(i, i + 1) for i in range(24)])
        path = write_graph(tmp_path, big)
        code, _, err = run(capsys, "solve", path, "--method", "exact")
        assert code == 3
        assert "cap" in err

    def test_method_mismatch_exit_code(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(5))
        code, _, _ = run(capsys, "solve", path, "--method", "chain")
        assert code == 5

    def test_isolated_vertex_is_input_error_for_chain(self, tmp_path, capsys):
        g = Graph.from_edges(3, [(0, 1)])
        path = write_graph(tmp_path, g)
        code, _, err = run(capsys, "solve", path, "--method", "chain")
        assert code == 2
        assert "exact" in err  # guidance points at the exact solver

    def test_unreadable_file(self, capsys):
        code, _, _ = run(capsys, "solve", "/nonexistent/file.graph")
        assert code == 2

    def test_human_mode_prints_partition_line(self, tmp_path, capsys):
        path = write_graph(tmp_path, P4_CHAIN)
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        assert "k=2 |X_i|=1,1 |Y_i|=1,1" in out

    def test_exact_on_disconnected_graph(self, tmp_path, capsys):
        # P4 + P3 + K1: 3 + 2 + 1 moves, one component at a time
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
        path = write_graph(tmp_path, g)
        code, out, _ = run(capsys, "solve", path, "--method", "exact", "--machine")
        assert code == 0
        report = machine_dict(out)
        assert report["gamma_gr"] == "6"
        assert int(report["nodes"]) >= 1

    def test_budget_exhausted_exit_code(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(12))
        code, _, err = run(capsys, "solve", path, "--method", "exact", "--budget", "1")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("value", ["0", "-3", "x", "1.5", ""])
    def test_bad_budget_is_usage_error(self, tmp_path, capsys, value):
        path = write_graph(tmp_path, path_graph(3))
        with pytest.raises(SystemExit) as info:
            main(["solve", path, "--budget", value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: grundy solve")
        assert "expected a positive integer" in err
        assert "Traceback" not in err


class TestVerify:
    def test_legal_dominating(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, path_graph(3))
        spath = tmp_path / "seq.txt"
        spath.write_text("0 2\n")
        code, out, _ = run(capsys, "verify", gpath, str(spath), "--machine")
        assert code == 0
        report = machine_dict(out)
        assert report["legal"] == "true"
        assert report["dominating"] == "true"
        assert report["footprint_0"] == "0:0,1"

    def test_illegal_reports_position(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, complete_graph(3))
        spath = tmp_path / "seq.txt"
        spath.write_text("0 1\n")
        code, out, _ = run(capsys, "verify", gpath, str(spath), "--machine")
        assert code == 0
        report = machine_dict(out)
        assert report["legal"] == "false"
        assert report["violation_position"] == "1"

    def test_legal_not_dominating(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, path_graph(4))
        spath = tmp_path / "seq.txt"
        spath.write_text("0\n")
        code, out, _ = run(capsys, "verify", gpath, str(spath), "--machine")
        assert code == 0
        report = machine_dict(out)
        assert report["legal"] == "true"
        assert report["dominating"] == "false"

    def test_out_of_range_vertex_is_input_error(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, path_graph(3))
        spath = tmp_path / "seq.txt"
        spath.write_text("9\n")
        code, _, _ = run(capsys, "verify", gpath, str(spath))
        assert code == 2


class TestReduce:
    def test_bipartite_gadget_files(self, tmp_path, capsys):
        hpath = tmp_path / "h.hg"
        hpath.write_text("4 5\n0 1 3\n1 2\n0 1\n1 2 3\n0 2 3\n")
        out_path = tmp_path / "gadget.graph"
        code, out, _ = run(
            capsys, "reduce", str(hpath), "--to", "bipartite", "--out", str(out_path)
        )
        assert code == 0
        gadget = load_graph(str(out_path))
        assert gadget.n == 18
        assert gadget.edge_count == 54
        roles = (tmp_path / "gadget.graph.roles").read_text().strip().splitlines()
        assert len(roles) == 18
        assert roles[0] == "0 A:0"
        assert roles[17] == "17 B:4"

    def test_cobipartite_gadget(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, path_graph(3))
        out_path = tmp_path / "gadget.graph"
        code, _, _ = run(
            capsys, "reduce", str(gpath), "--to", "cobipartite", "--out", str(out_path)
        )
        assert code == 0
        gadget = load_graph(str(out_path))
        assert (gadget.n, gadget.edge_count) == (6, 13)


class TestGen:
    def test_chain_profile_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "c.graph"
        code, out, _ = run(
            capsys, "gen", "chain", "--profile", "1,2x2,1", "--out", str(out_path)
        )
        assert code == 0
        g = load_graph(str(out_path))
        assert g.n == 6

    def assert_bad_profile(self, tmp_path, capsys, spec):
        code, _, err = run(
            capsys, "gen", "chain", "--profile", spec, "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert err.startswith("error: ")
        assert not (tmp_path / "x").exists()

    def test_bad_profile_spec(self, tmp_path, capsys):
        self.assert_bad_profile(tmp_path, capsys, "nonsense")

    @pytest.mark.parametrize("spec", ["1,2x1", "0x1", "1x", "x", "1x1x1", "*,1x1,1", "1x*"])
    def test_malformed_profile_specs(self, tmp_path, capsys, spec):
        self.assert_bad_profile(tmp_path, capsys, spec)

    def test_graph_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        run(capsys, "gen", "graph", "--n", "8", "--p", "0.4", "--seed", "42", "--out", str(a))
        run(capsys, "gen", "graph", "--n", "8", "--p", "0.4", "--seed", "42", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_hypergraph(self, tmp_path, capsys):
        out_path = tmp_path / "h.hg"
        code, _, _ = run(
            capsys, "gen", "hypergraph", "--n", "4", "--m", "5", "--seed", "7", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text().splitlines()[0] == "4 5"


@pytest.mark.usefixtures("memory_limit")
class TestGenCap:
    """Oversized gen requests exit 3 before the generator runs."""

    @pytest.fixture(autouse=True)
    def no_generators(self, monkeypatch):
        def no_generator(*args):
            raise AssertionError("the generator ran")

        monkeypatch.setattr(cli, "chain_from_profile", no_generator)
        monkeypatch.setattr(cli, "random_graph", no_generator)
        monkeypatch.setattr(cli, "random_hypergraph", no_generator)

    @pytest.mark.parametrize(
        "spec, total", [("1000000000x1", 1000000001), ("4194304,1x1,1", 4194307)]
    )
    def test_chain(self, tmp_path, capsys, spec, total):
        out_path = tmp_path / "c.graph"
        code, out, err = run(capsys, "gen", "chain", "--profile", spec, "--out", str(out_path))
        assert code == 3
        assert out == ""
        assert err == f"error: {total} vertices (gen chain) exceeds the cap of 4194304\n"
        assert not out_path.exists()

    def test_graph(self, tmp_path, capsys):
        out_path = tmp_path / "g.graph"
        n = cli.MAX_RANDOM_GRAPH_VERTICES + 1
        code, out, err = run(
            capsys, "gen", "graph", "--n", str(n), "--p", "0.5", "--seed", "1", "--out", str(out_path)
        )
        assert code == 3
        assert out == ""
        assert err == f"error: {n} vertices (gen graph) exceeds the cap of {n - 1}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "n, m, what",
        [("100000000", "2", "100000000 vertices"), ("5", "2049", "2049 edges")],
    )
    def test_hypergraph(self, tmp_path, capsys, n, m, what):
        out_path = tmp_path / "h.hg"
        code, out, err = run(
            capsys, "gen", "hypergraph", "--n", n, "--m", m, "--seed", "1", "--out", str(out_path)
        )
        assert code == 3
        assert out == ""
        assert err == f"error: {what} (gen hypergraph) exceeds the cap of 2048\n"
        assert not out_path.exists()


def test_gen_at_the_caps_runs_the_generator(capsys, monkeypatch):
    made = []
    tiny = Graph.from_edges(1, [])
    tiny_h = Hypergraph(2, [(0, 1), (0, 1)])
    monkeypatch.setattr(cli, "chain_from_profile", lambda p: made.append(p.total_vertices) or tiny)
    monkeypatch.setattr(cli, "random_graph", lambda n, p, seed: made.append(n) or tiny)
    monkeypatch.setattr(cli, "random_hypergraph", lambda n, m, seed: made.append((n, m)) or tiny_h)
    monkeypatch.setattr(cli, "save_graph", lambda g, path: None)
    monkeypatch.setattr(cli, "save_hypergraph", lambda h, path: None)
    assert run(capsys, "gen", "chain", "--profile", "4194301,1x1,1", "--out", "-")[0] == 0
    n = str(cli.MAX_RANDOM_GRAPH_VERTICES)
    assert run(capsys, "gen", "graph", "--n", n, "--p", "0.5", "--seed", "1", "--out", "-")[0] == 0
    k = str(cli.MAX_RANDOM_HYPERGRAPH_SIZE)
    assert run(capsys, "gen", "hypergraph", "--n", k, "--m", k, "--seed", "1", "--out", "-")[0] == 0
    assert made == [1 << 22, cli.MAX_RANDOM_GRAPH_VERTICES, (2048, 2048)]


class TestBench:
    def test_smoke_rows(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "64,128", "--repeats", "2", "--machine")
        assert code == 0
        rows = [line for line in out.splitlines() if "," in line]
        assert len(rows) == 2
        n, t = rows[0].split(",")
        assert int(n) == 64
        float(t)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sizes", "1000,abc"],
            ["--sizes", "64,0"],
            ["--sizes", ""],
            ["--repeats", "0"],
            ["--repeats", "x"],
        ],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(["bench", *argv])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: grundy bench")
        assert "expected a positive integer" in err
        assert "Traceback" not in err


@pytest.mark.usefixtures("memory_limit")
class TestBenchCap:
    """Oversized bench sizes exit 3 before any instance is built."""

    @pytest.mark.parametrize(
        "sizes, what, cap",
        [
            ("100000000000", "100000000000 vertices (bench size)", 1 << 22),
            ("64,4194305", "4194305 vertices (bench size)", 1 << 22),
            ("4194304,4194304,1", "8388609 vertices (bench sizes in all)", 1 << 23),
        ],
    )
    def test_refused(self, capsys, monkeypatch, sizes, what, cap):
        def no_generator(*args):
            raise AssertionError("the generator ran")

        monkeypatch.setattr(bench_mod, "chain_from_profile", no_generator)
        code, out, err = run(capsys, "bench", "--sizes", sizes)
        assert code == 3
        assert out == ""
        assert err == f"error: {what} exceeds the cap of {cap}\n"

    def test_at_the_caps_the_generator_runs(self, monkeypatch):
        made = []
        tiny = bench_mod.chain_from_profile(bench_mod.bench_profile(8))
        monkeypatch.setattr(bench_mod, "chain_from_profile", lambda p: made.append(p.total_vertices) or tiny)
        rows = bench_mod.run_bench([1 << 22, 1 << 22], repeats=1)
        assert made == [1 << 22, 1 << 22] == [row.n for row in rows]


class TestNotUtf8:
    """Undecodable bytes in any input file are a format error (exit 2)."""

    def bad_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\n")
        return str(path)

    def test_graph_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", self.bad_file(tmp_path, "g.graph"))
        assert code == 2
        assert "not valid UTF-8" in err

    def test_hypergraph_file(self, tmp_path, capsys):
        hpath = self.bad_file(tmp_path, "h.hg")
        code, _, err = run(
            capsys, "reduce", hpath, "--to", "bipartite", "--out", str(tmp_path / "out.graph")
        )
        assert code == 2
        assert "not valid UTF-8" in err

    def test_sequence_file(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, path_graph(3))
        code, _, err = run(capsys, "verify", gpath, self.bad_file(tmp_path, "seq.txt"))
        assert code == 2
        assert "not valid UTF-8" in err


@pytest.mark.usefixtures("memory_limit")
class TestHeaderCap:
    """A header n above a cap exits 3 before anything n-sized is built."""

    def test_graph_file(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        path.write_text("1000000000000 0\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 3
        assert out == ""
        assert err == "error: 1000000000000 vertices in the file header exceeds the cap of 4194304\n"

    def test_cobipartite_gadget(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        path.write_text("3000 0\n")
        out_path = tmp_path / "out.graph"
        code, out, err = run(capsys, "reduce", str(path), "--to", "cobipartite", "--out", str(out_path))
        assert code == 3
        assert out == ""
        assert err == "error: 9000000 edges (co-bipartite gadget) exceeds the cap of 1048576\n"
        assert not out_path.exists()

    def test_hypergraph_file(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_text("1000000000000 1\n0\n")
        out_path = tmp_path / "out.graph"
        code, _, err = run(capsys, "reduce", str(path), "--to", "bipartite", "--out", str(out_path))
        assert code == 3
        assert "exceeds the cap of 4194304" in err
        assert not out_path.exists()


class TestSweep:
    # Each tiny sweep pins the full stdout, as the CLI printed it before the
    # sweep families moved into one table.
    def assert_golden(self, capsys, argv, checked):
        code, out, _ = run(capsys, "sweep", *argv)
        assert code == 0
        assert out == f"sweep={argv[0]}\nchecked={checked}\nfailures=0\n"

    def test_tiny_chain_sweep(self, capsys):
        argv = ["chain", "--max-k", "2", "--max-part", "2", "--max-vertices", "8",
                "--random", "5", "--random-vertices", "8"]
        self.assert_golden(capsys, argv, 25)

    def test_tiny_duality_sweep(self, capsys):
        self.assert_golden(capsys, ["duality", "--n-max", "3", "--m-max", "3", "--random", "10"], 61)

    def test_tiny_cobipartite_sweep(self, capsys):
        self.assert_golden(capsys, ["cobipartite", "--n-max", "3", "--random", "5"], 16)

    def test_tiny_bipartite_sweep_with_jobs(self, capsys):
        self.assert_golden(capsys, ["bipartite", "--random", "4", "--jobs", "2"], 526)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bipartite", "--n-max", "3"], "unrecognized arguments: --n-max 3"),
            (["cobipartite", "--max-k", "2"], "unrecognized arguments: --max-k 2"),
            (["duality", "--max-vertices", "8"], "unrecognized arguments: --max-vertices 8"),
            (["bipartite", "--random", "-4"], "expected a non-negative integer, got '-4'"),
            (["duality", "--n-max", "0"], "expected a positive integer, got '0'"),
            (["chain", "--max-k", "-1"], "expected a positive integer, got '-1'"),
            (["chain", "--random-vertices", "1"], "expected an integer >= 2, got '1'"),
            (["cobipartite", "--seed", "x"], "expected an integer, got 'x'"),
        ],
    )
    def test_bad_options_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(["sweep", *argv])
        assert info.value.code == 2
        err = capsys.readouterr().err
        # an option of another family is unknown to the whole command line
        usage = "usage: grundy " if "unrecognized" in message else f"usage: grundy sweep {argv[0]} "
        assert err.startswith(usage)
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["cobipartite", "--n-max", "9"], 6),
            (["duality", "--n-max", "7"], 6),
            (["duality", "--m-max", "6"], 5),
            (["chain", "--max-k", "5"], 4),
            (["chain", "--max-part", "6"], 5),
            (["chain", "--max-vertices", "21"], 20),
            (["chain", "--random-vertices", "21"], 20),
        ],
    )
    def test_oversized_bounds_stop_before_the_sweep(self, capsys, monkeypatch, argv, cap):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        family = sweeps.FAMILIES[argv[0]]
        monkeypatch.setitem(sweeps.FAMILIES, argv[0], family._replace(sweep=no_sweep))
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 3
        assert out == ""
        assert f"{argv[2]} ({argv[0]} sweep {argv[1][2:].replace('-', '_')}) exceeds the cap of {cap}" in err

    def test_negative_seed_is_accepted(self, capsys):
        code, out, _ = run(capsys, "sweep", "bipartite", "--random", "2", "--seed", "-5")
        assert code == 0
        assert out == "sweep=bipartite\nchecked=524\nfailures=0\n"

    @pytest.mark.parametrize("value", ["0", "-1", "two", "2.0", ""])
    def test_bad_jobs_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "bipartite", "--jobs", value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: grundy sweep")
        assert "expected a positive integer" in err
        assert "Traceback" not in err

    def test_jobs_clamped_to_usable_cpus(self):
        # parse only: a sweep with this many workers must never start
        usable = len(os.sched_getaffinity(0))
        assert cli._job_count("100000") == usable
        assert cli._job_count("1") == 1
        args = cli.build_parser().parse_args(["sweep", "chain", "--jobs", "100000"])
        assert args.jobs == usable
