import json

import numpy as np
import pytest

from noisyrows import cli
from noisyrows.cli import main
from noisyrows.instances import GroundTruthInstance, load, save
from noisyrows.verify import read_trial_stats_csv


def make_instance(tmp_path, extra=()):
    path = tmp_path / "inst.json"
    argv = [
        "generate", "--n1", "8", "--n2", "8", "--rank", "2", "--noisy", "1",
        "--seed", "7", "-o", str(path), *extra,
    ]
    assert main(argv) == 0
    return path


class TestGenerate:
    def test_writes_loadable_file(self, tmp_path, capsys):
        path = make_instance(tmp_path)
        inst = load(path)
        assert inst.n1 == 8 and inst.rank_r == 2
        out = capsys.readouterr().out
        assert "psi_col_clean" in out

    def test_infeasible_config_fails(self, tmp_path):
        rc = main([
            "generate", "--n1", "8", "--n2", "8", "--rank", "5", "--noisy", "5",
            "-o", str(tmp_path / "x.json"),
        ])
        assert rc != 0

    def test_no_valid_draw_is_an_error_line(self, tmp_path, capsys):
        # Every draw fails the psi check: the clean space is all of R^4.
        rc = main(["generate", "--n1", "4", "--n2", "5", "--rank", "4", "--enforce-psi",
                   "-o", str(tmp_path / "x.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: no valid draw in 16 attempts: ")
        assert not (tmp_path / "x.json").exists()

    def test_sparse_basis_prints_target(self, tmp_path, capsys):
        path = tmp_path / "sb.json"
        rc = main([
            "generate", "--n1", "9", "--n2", "6", "--rank", "3",
            "--mode", "sparse-basis", "--target-psi", "3", "-o", str(path),
        ])
        assert rc == 0
        assert "psi_col_clean=3" in capsys.readouterr().out


class TestRun:
    def test_identifies_noisy_rows(self, tmp_path, capsys):
        path = make_instance(tmp_path)
        out_json = tmp_path / "result.json"
        rc = main([
            "run", "--instance", str(path), "--oracle-seed", "1",
            "--json", str(out_json),
        ])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        inst = load(path)
        assert doc["noisy_rows_hat"] == list(inst.noisy_rows)
        assert doc["status"] == "ok"
        assert set(doc) == {
            "status", "noisy_rows_hat", "query_count",
            "proof_bound", "stated_bound", "max_rel_error",
        }

    def test_no_noise_instance(self, tmp_path):
        path = tmp_path / "clean.json"
        main(["generate", "--n1", "8", "--n2", "8", "--rank", "2",
              "--seed", "3", "-o", str(path)])
        out_json = tmp_path / "r.json"
        rc = main(["run", "--instance", str(path), "--json", str(out_json)])
        assert rc == 0
        assert json.loads(out_json.read_text())["noisy_rows_hat"] == []

    def test_byte_identical_repeats(self, tmp_path):
        path = make_instance(tmp_path)
        blobs = []
        for _ in range(2):
            out_json = tmp_path / "result.json"
            main(["run", "--instance", str(path), "--oracle-seed", "5",
                  "--json", str(out_json)])
            blobs.append(out_json.read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_file_exits_nonzero(self, tmp_path):
        assert main(["run", "--instance", str(tmp_path / "nope.json")]) == 1

    def test_null_rank_is_an_error_not_a_traceback(self, tmp_path, capsys):
        path = make_instance(tmp_path)
        doc = json.loads(path.read_text())
        doc["r"] = None
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["run", "--instance", str(path)]) == 1
        assert "error: field 'r' must be an integer" in capsys.readouterr().err

    def test_larger_epsilon_queries_less(self, tmp_path):
        path = make_instance(tmp_path)

        def queries(eps):
            out_json = tmp_path / "r.json"
            main(["run", "--instance", str(path), "--oracle-seed", "2",
                  "--epsilon", eps, "--json", str(out_json)])
            return json.loads(out_json.read_text())["query_count"]

        assert queries("0.5") <= queries("0.01")

    @pytest.mark.parametrize("flag", ["--psi-u", "--psi-v"])
    def test_zero_psi_is_rejected(self, tmp_path, flag):
        path = make_instance(tmp_path)
        assert main(["run", "--instance", str(path), flag, "0"]) == 1

    @pytest.mark.parametrize("flag", ["--psi-u", "--psi-v"])
    def test_zero_psi_is_rejected_before_the_run(self, tmp_path, capsys, monkeypatch, flag):
        path = make_instance(tmp_path)
        capsys.readouterr()
        runs = []
        monkeypatch.setattr(cli, "run_completion", lambda *args: runs.append(args))
        assert main(["run", "--instance", str(path), flag, "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sparsity numbers are at least 1" in captured.err
        assert runs == []

    def test_instance_is_validated_at_the_run_tolerance(self, tmp_path, capsys):
        # Declared rank 2, with a third singular value 1e-8 times the first:
        # rank 3 at the default 1e-9 cut, rank 2 at 1e-6.
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        m = (u * [1.0, 0.5, 1e-8]) @ v.T
        path = tmp_path / "edge.json"
        save(GroundTruthInstance(m=m, noisy_rows=(), noise_rows=np.zeros((0, 6)),
                                 rank_r=2, seed=0), path)
        capsys.readouterr()
        assert main(["run", "--instance", str(path), "--tol", "1e-6"]) == 0
        assert "status: ok" in capsys.readouterr().out
        assert main(["run", "--instance", str(path)]) == 1
        assert "clean matrix rank does not match declared rank" in capsys.readouterr().err


class TestTrials:
    def test_csv_row(self, tmp_path):
        out = tmp_path / "stats.csv"
        rc = main([
            "trials", "--n1", "8", "--n2", "8", "--rank", "2", "--noisy", "1",
            "--trials", "20", "--base-seed", "0", "-o", str(out),
        ])
        assert rc == 0
        stats = read_trial_stats_csv(out)
        assert len(stats) == 1
        assert stats[0].trials == 20
        assert stats[0].successes >= 16
        assert stats[0].mean_queries <= 64

    def test_seed_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trials", "--n1", "8", "--n2", "8", "--rank", "2",
                  "--trials", "3", "--seed", "4", "-o", str(tmp_path / "s.csv")])

    def test_base_seed_is_the_first_trial_seed(self, tmp_path):
        def mean_queries(base_seed):
            out = tmp_path / f"stats{base_seed}.csv"
            assert main([
                "trials", "--n1", "8", "--n2", "8", "--rank", "2", "--noisy", "1",
                "--trials", "5", "--base-seed", base_seed, "-o", str(out),
            ]) == 0
            return read_trial_stats_csv(out)[0].mean_queries

        assert mean_queries("0") != mean_queries("99")

    def test_no_valid_draw_is_an_error_line(self, tmp_path, capsys):
        rc = main(["trials", "--n1", "4", "--n2", "5", "--rank", "4", "--enforce-psi",
                   "--trials", "2", "-o", str(tmp_path / "s.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: no valid draw in 16 attempts: ")
        assert not (tmp_path / "s.csv").exists()

    def test_zero_trials_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trials", "--n1", "8", "--n2", "8", "--rank", "2",
                  "--trials", "0", "-o", str(tmp_path / "s.csv")])


class TestBound:
    def test_prints_both_bounds(self, capsys):
        assert main(["bound", "--n1", "100", "--n2", "10", "--rank", "2",
                     "--omega", "2", "--psi-u", "50", "--psi-v", "1"]) == 0
        out = capsys.readouterr().out
        assert "proof_bound" in out and "stated_bound" in out

    def test_psi_one_annotation(self, capsys):
        main(["bound", "--n1", "10", "--n2", "10", "--rank", "2",
              "--omega", "0", "--psi-u", "1", "--psi-v", "5"])
        assert "psi_u > 1" in capsys.readouterr().out

    def test_range_violation(self):
        assert main(["bound", "--n1", "10", "--n2", "10", "--rank", "2",
                     "--omega", "0", "--psi-u", "0", "--psi-v", "5"]) == 1


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
