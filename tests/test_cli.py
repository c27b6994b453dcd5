import pytest

from grundy.cli import main
from grundy import Graph, format_graph, load_graph

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

    def test_auto_uses_cochain_on_cobipartite(self, tmp_path, capsys):
        # complement of K_{2,3} has a triangle, so the chain route rejects it
        from grundy import complement
        from .conftest import complete_bipartite

        path = write_graph(tmp_path, complement(complete_bipartite(2, 3)))
        code, out, _ = run(capsys, "solve", path, "--machine")
        assert code == 0
        report = machine_dict(out)
        assert report["method"] == "cochain"
        assert report["gamma_gr"] == "2"

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

    def test_bad_profile_spec(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "gen", "chain", "--profile", "nonsense", "--out", str(tmp_path / "x")
        )
        assert code == 2

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


class TestSweep:
    def test_tiny_chain_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "chain",
            "--max-k", "2", "--max-part", "2", "--max-vertices", "8",
            "--random", "5", "--random-vertices", "8",
        )
        assert code == 0
        report = machine_dict(out)
        assert report["failures"] == "0"
        assert int(report["checked"]) > 0

    def test_tiny_duality_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "duality", "--n-max", "3", "--m-max", "3", "--random", "10"
        )
        assert code == 0
        assert machine_dict(out)["failures"] == "0"

    def test_tiny_cobipartite_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "cobipartite", "--n-max", "3", "--random", "5"
        )
        assert code == 0
        assert machine_dict(out)["failures"] == "0"

    def test_tiny_bipartite_sweep_with_jobs(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "bipartite", "--random", "4", "--jobs", "2"
        )
        assert code == 0
        assert machine_dict(out)["failures"] == "0"
