"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import main
from repro.graph import save_graph
from repro.workloads import cycle, path_tree, planted_cut, planted_kcut
from repro.graph import Graph
from conftest import serving


@pytest.fixture
def planted_file(tmp_path):
    inst = planted_cut(32, seed=1)
    path = tmp_path / "planted.txt"
    save_graph(inst.graph, path)
    return path, inst


@pytest.fixture
def tree_file(tmp_path):
    vs, es = path_tree(20)
    g = Graph(vertices=vs, edges=[(u, v, 1.0) for u, v in es])
    path = tmp_path / "tree.txt"
    save_graph(g, path)
    return path


class TestMincut:
    def test_basic_run(self, planted_file, capsys):
        path, inst = planted_file
        assert main(["mincut", str(path), "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "cut weight:" in out
        assert "AMPC rounds:" in out

    def test_verify_flag(self, planted_file, capsys):
        path, _ = planted_file
        assert main(["mincut", str(path), "--trials", "2", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "exact (Stoer-Wagner):" in out
        assert "ratio:" in out

    def test_ledger_flag(self, planted_file, capsys):
        path, _ = planted_file
        assert main(["mincut", str(path), "--trials", "1", "--ledger"]) == 0
        out = capsys.readouterr().out
        assert "reason" in out

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_fewer_than_one_trial_rejected(self, planted_file, capsys, trials):
        path, _ = planted_file
        with pytest.raises(SystemExit) as exc:
            main(["mincut", str(path), "--trials", trials])
        assert exc.value.code == 2
        assert "need at least one trial" in capsys.readouterr().err


class TestKcut:
    def test_basic_run(self, tmp_path, capsys):
        inst = planted_kcut(24, 3, seed=2)
        path = tmp_path / "k.txt"
        save_graph(inst.graph, path)
        assert main(["kcut", str(path), "3"]) == 0
        out = capsys.readouterr().out
        assert "k-cut weight:" in out
        assert "part 0:" in out


class TestDecompose:
    def test_tree_accepted(self, tree_file, capsys):
        assert main(["decompose", str(tree_file), "--process"]) == 0
        out = capsys.readouterr().out
        assert "height=" in out
        assert "T_1:" in out

    def test_non_tree_rejected(self, tmp_path, capsys):
        path = tmp_path / "cycle.txt"
        save_graph(cycle(6), path)
        assert main(["decompose", str(path)]) == 2
        assert "must be a tree" in capsys.readouterr().err


class TestExperiments:
    def test_fast_generation(self, tmp_path, capsys):
        out_path = tmp_path / "EXP.md"
        assert main(["experiments", "--output", str(out_path), "--fast"]) == 0
        text = out_path.read_text()
        assert "E1" in text and "E7" in text and "Figure 1" in text
        assert "Claim." in text


class TestAlgorithmSwitch:
    def test_matula(self, planted_file, capsys):
        path, _ = planted_file
        assert main(["mincut", str(path), "--algorithm", "matula", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "ratio:" in out
        assert "AMPC rounds" not in out

    def test_exact(self, planted_file, capsys):
        path, inst = planted_file
        assert main(["mincut", str(path), "--algorithm", "exact"]) == 0
        out = capsys.readouterr().out
        assert f"cut weight: {inst.planted_weight}" in out

    def test_karger_stein(self, planted_file, capsys):
        path, _ = planted_file
        assert main(["mincut", str(path), "--algorithm", "karger-stein"]) == 0
        assert "cut weight:" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self, planted_file):
        path, _ = planted_file
        with pytest.raises(SystemExit):
            main(["mincut", str(path), "--algorithm", "bogus"])


class TestFormatsAndSparsify:
    def test_convert_roundtrip(self, planted_file, tmp_path, capsys):
        path, inst = planted_file
        dimacs = tmp_path / "g.dimacs"
        metis = tmp_path / "g.metis"
        assert main(["convert", str(path), str(dimacs)]) == 0
        assert main(["convert", str(dimacs), str(metis)]) == 0
        out = capsys.readouterr().out
        assert out.count("converted") == 2
        from repro.graph import load_metis

        g = load_metis(metis)
        assert g.num_edges == inst.graph.num_edges

    def test_mincut_reads_dimacs(self, planted_file, tmp_path, capsys):
        path, _ = planted_file
        dimacs = tmp_path / "g.dimacs"
        assert main(["convert", str(path), str(dimacs)]) == 0
        assert main(["mincut", str(dimacs), "--algorithm", "exact"]) == 0
        assert "cut weight:" in capsys.readouterr().out

    def test_sparsify_preserves_exact_weight(self, planted_file, tmp_path, capsys):
        path, inst = planted_file
        out_path = tmp_path / "sp.txt"
        assert main(["sparsify", str(path), str(out_path)]) == 0
        assert main(["mincut", str(out_path), "--algorithm", "exact"]) == 0
        out = capsys.readouterr().out
        assert f"cut weight: {inst.planted_weight}" in out

    def test_kcut_metrics_flag(self, tmp_path, capsys):
        inst = planted_kcut(24, 3, seed=2)
        path = tmp_path / "k.txt"
        save_graph(inst.graph, path)
        assert main(["kcut", str(path), "3", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "ncut=" in out and "Q=" in out


class TestServeAndQuery:
    @pytest.fixture
    def live_service(self):
        from repro.service import CutService, make_server

        service = CutService()
        with serving(make_server(service, port=0)) as server:
            yield server.url, service
        service.close()

    def test_query_register_and_cuts(self, live_service, planted_file, capsys):
        url, _ = live_service
        path, inst = planted_file
        assert main(["query", "register", "--url", url,
                     "--name", "g", "--file", str(path)]) == 0
        assert '"fingerprint"' in capsys.readouterr().out
        assert main(["query", "mincut", "--url", url,
                     "--name", "g", "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert '"weight"' in out and '"cached": false' in out
        assert main(["query", "stcut", "--url", url,
                     "--name", "g", "--s", "0", "--t", "17"]) == 0
        assert '"algorithm": "gomory-hu"' in capsys.readouterr().out
        assert main(["query", "stats", "--url", url]) == 0
        assert '"oracles"' in capsys.readouterr().out

    def test_mutate_roundtrip(self, live_service, planted_file, capsys):
        url, service = live_service
        path, _ = planted_file
        assert main(["query", "register", "--url", url,
                     "--name", "g", "--file", str(path)]) == 0
        capsys.readouterr()
        assert main(["mutate", "--url", url, "--name", "g",
                     "--add", "0,2,2.5", "--reweight", "0,1,4.0"]) == 0
        out = capsys.readouterr().out
        assert '"generation": 1' in out
        graph = service.store.get("g").graph
        assert graph.weight(0, 1) == 4.0
        assert graph.weight(0, 2) == 2.5
        # reweight-to-zero drops the edge
        assert main(["mutate", "--url", url, "--name", "g",
                     "--reweight", "0,2,0"]) == 0
        assert '"zero_reweight_drops": 1' in capsys.readouterr().out
        assert not service.store.get("g").graph.has_edge(0, 2)

    def test_mutate_deltas_json_and_conflict(
        self, live_service, planted_file, tmp_path, capsys
    ):
        import json as _json

        url, service = live_service
        path, _ = planted_file
        assert main(["query", "register", "--url", url,
                     "--name", "g", "--file", str(path)]) == 0
        capsys.readouterr()
        deltas = tmp_path / "deltas.json"
        deltas.write_text(_json.dumps(
            [{"adds": [[0, 1, 1.0]]}, {"reweights": [[0, 1, 9.0]]}]
        ))
        assert main(["mutate", "--url", url, "--name", "g",
                     "--deltas-json", str(deltas)]) == 0
        assert '"generation": 2' in capsys.readouterr().out
        # stale fingerprint -> server-side 409 surfaced as an error
        assert main(["mutate", "--url", url, "--name", "g",
                     "--add", "3,4,1.0",
                     "--expect-fingerprint", "stale"]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_mutate_deltas_json_keeps_its_expected_fingerprint(
        self, live_service, planted_file, tmp_path, capsys
    ):
        import json as _json

        url, service = live_service
        path, _ = planted_file
        assert main(["query", "register", "--url", url,
                     "--name", "g", "--file", str(path)]) == 0
        capsys.readouterr()
        delta = tmp_path / "delta.json"
        delta.write_text(_json.dumps(
            {"adds": [[3, 4, 1.0]], "expected_fingerprint": "stale"}
        ))
        mutate = ["mutate", "--url", url, "--name", "g",
                  "--deltas-json", str(delta)]
        assert main(mutate) == 1  # the server's 409
        assert "mismatch" in capsys.readouterr().out
        assert service.store.get("g").generation == 0
        # --expect-fingerprint sets the field over the file's
        fingerprint = service.store.peek_fingerprint("g")
        assert main([*mutate, "--expect-fingerprint", fingerprint]) == 0
        assert '"generation": 1' in capsys.readouterr().out

    def test_mutate_deltas_json_unknown_field_is_a_local_error(
        self, tmp_path, capsys
    ):
        delta = tmp_path / "delta.json"
        delta.write_text('{"adds": [[0, 1, 1.0]], "expected_fingerprnt": "x"}')
        # caught before any request: the URL reaches no server
        assert main(["mutate", "--url", "http://127.0.0.1:9", "--name", "g",
                     "--deltas-json", str(delta)]) == 2
        assert "'expected_fingerprnt'" in capsys.readouterr().err

    def test_mutate_requires_some_delta(self, live_service, capsys):
        url, _ = live_service
        assert main(["mutate", "--url", url, "--name", "g"]) == 2
        assert "nothing to apply" in capsys.readouterr().err

    def test_mutate_reweight_requires_weight_locally(self, capsys):
        # caught by the CLI parser, never reaches a server
        with pytest.raises(SystemExit, match="wants U,V,W"):
            main(["mutate", "--url", "http://127.0.0.1:9", "--name", "g",
                  "--reweight", "1,2"])

    def test_query_kernelize(self, live_service, planted_file, capsys):
        url, _ = live_service
        path, _ = planted_file
        assert main(["query", "register", "--url", url,
                     "--name", "g", "--file", str(path)]) == 0
        capsys.readouterr()
        assert main(["query", "kernelize", "--url", url, "--name", "g",
                     "--level", "aggressive"]) == 0
        out = capsys.readouterr().out
        assert '"cached": false' in out and '"level": "aggressive"' in out

    def test_query_sends_set_flags_verbatim(
        self, live_service, planted_file, capsys
    ):
        url, _ = live_service
        path, _ = planted_file
        assert main(["query", "register", "--url", url,
                     "--name", "g", "--file", str(path)]) == 0
        capsys.readouterr()
        # --trials 0 reaches the server as 0 (not rewritten to 1) ...
        assert main(["query", "sparsestcut", "--url", url, "--name", "g",
                     "--trials", "0"]) == 0
        assert '"trials": 0' in capsys.readouterr().out
        # ... and unset flags are left to the server's defaults
        assert main(["query", "sparsestcut", "--url", url,
                     "--name", "g"]) == 0
        out = capsys.readouterr().out
        assert '"trials": 2' in out and '"kernel": false' in out
        # a flag the verb does not take is an error, not silently dropped
        assert main(["query", "kernelize", "--url", url, "--name", "g",
                     "--preprocess", "safe"]) == 2
        assert "does not take --preprocess" in capsys.readouterr().err

    def test_query_unknown_graph_exits_nonzero(self, live_service, capsys):
        url, _ = live_service
        assert main(["query", "mincut", "--url", url, "--name", "nope"]) == 1
        assert "error" in capsys.readouterr().out

    def test_query_missing_required_flag(self, live_service):
        url, _ = live_service
        with pytest.raises(SystemExit):
            main(["query", "stcut", "--url", url, "--name", "g"])

    def test_query_unreachable_server_fails_cleanly(self, capsys):
        # No traceback — a clean error on stderr and exit code 1.
        assert main(["query", "stats", "--url", "http://127.0.0.1:9"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_subprocess_end_to_end(self, planted_file, capsys):
        """Real `repro-cut serve` process + `query` client round trip."""
        import os
        import subprocess
        import sys

        import repro

        path, _ = planted_file
        src_dir = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--graph", f"g={path}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            url = None
            for _ in range(20):
                line = proc.stdout.readline()
                if line.startswith("serving on "):
                    url = line.split()[-1]
                    break
            assert url, "server never reported its address"
            assert main(["query", "stcut", "--url", url,
                         "--name", "g", "--s", "0", "--t", "20"]) == 0
            first = capsys.readouterr().out
            assert '"cached": false' in first
            assert main(["query", "stcut", "--url", url,
                         "--name", "g", "--s", "1", "--t", "21"]) == 0
            assert '"cached": true' in capsys.readouterr().out
        finally:
            proc.terminate()
            proc.wait(timeout=10)
