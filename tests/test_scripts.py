import csv
import json
import re
import runpy
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    return runpy.run_path(str(SCRIPTS / name), run_name="script_under_test")["main"]


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_success_rate_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    main = script_main("success_rate_sweep.py")
    assert main(["--trials", "2", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0][:3] == ["n1", "n2", "r"]
    assert len(rows) == 1 + 7
    assert all(row[6] == "2" for row in rows[1:])  # trials column
    assert f"wrote {out}" in capsys.readouterr().out


def test_detection_probability(tmp_path, capsys):
    # The default run, 10,000 probes from seed 0, pinned row for row.
    out = tmp_path / "detection.csv"
    main = script_main("detection_probability.py")
    assert main(["-o", str(out)]) == 0
    assert read_csv(out) == [
        ["n1", "n2", "r", "omega", "psi_u", "estimate", "lower_bound", "refined_value"],
        ["10", "8", "1", "2", "8", "1.0", "0.8", "1.0"],
        ["12", "8", "2", "1", "3", "0.5847", "0.25", "0.3333333333333333"],
        ["12", "9", "3", "0", "4", "1.0", "0.3333333333333333", "0.3333333333333333"],
        ["9", "8", "2", "1", "7", "1.0", "0.7777777777777778", "0.8888888888888888"],
        ["11", "10", "3", "2", "7", "1.0", "0.6363636363636364", "0.8181818181818182"],
        ["10", "9", "2", "0", "5", "1.0", "0.5", "0.5"],
        ["12", "11", "1", "3", "9", "1.0", "0.75", "1.0"],
    ]
    assert "estimate=" in capsys.readouterr().out


# Seed 101 of each workload: (runs, unique queries, successes, digest).
DIGESTS = {
    "square": (24, 310_980, 24,
               "c90e9053c7fc9fe06117ec2646c9b707d237310e735e7d7c2069172914d3d309"),
    "wide": (8, 533_829, 8,
             "d7cb5afaf9a9e82d7011847530e257397bc14e616bad54593ee24b640e7d5b88"),
    "trials": (80, 184_880, 80,
               "0e41ddfeb28bc7f6cd586c1459ef11c268e223e44165801ca3550a9efaa97506"),
}


def digests(out):
    """(runs, unique queries, successes, digest) per workload of the script's output."""
    lines = [json.loads(line) for line in out.splitlines()]
    return {line["workload"]: (line["runs"], line["unique_queries"], line["successes"],
                               line["decisions"]) for line in lines}


def test_decision_digest_repeats(capsys):
    main = script_main("decision_digest.py")
    outputs = []
    for _ in range(2):
        assert main(["--seeds", "101"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert digests(outputs[0]) == DIGESTS


# The default seeds, 101-110, of each workload: the same decisions, pinned.
DEFAULT_DIGESTS = {
    "square": (240, 3_108_583, 240,
               "19b51298647d5ba87494f004d92b30f3cc5cb79bcbf6a71d52f62bfc034e0f07"),
    "wide": (80, 5_338_258, 80,
             "4ec329cbc1b9ee13759b98c442c1ff7d3fa7a5e6668707021d9f9fda568cf13c"),
    "trials": (800, 1_851_678, 796,
               "35bd4643f1270e1905184cb3c5b64332f0d1125966e70d6499f67c79ea895a53"),
}


def test_decision_digest_default_seeds(capsys):
    assert script_main("decision_digest.py")([]) == 0
    assert digests(capsys.readouterr().out) == DEFAULT_DIGESTS


def record_bench(tmp_path, monkeypatch):
    """(argv, BENCH_t.json) of one short bench_record.py run into tmp_path."""
    # No bytecode is written, so the run leaves perfbench/ as it was.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    main = script_main("bench_record.py")
    argv = ["--label", "t", "--workload", "wide", "--seeds", "1", "--seconds", "0.1",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    return argv, json.loads((tmp_path / "BENCH_t.json").read_text())


def test_bench_record(tmp_path, monkeypatch, capsys):
    argv, doc = record_bench(tmp_path, monkeypatch)
    assert doc["label"] == "t"
    # A git checkout records its commit; a tree exported without .git, null.
    if doc["commit"] is None:
        assert doc["dirty"] is None
    else:
        assert re.fullmatch("[0-9a-f]{40}", doc["commit"])
        assert isinstance(doc["dirty"], bool)
    assert doc["command"] == ["scripts/bench_record.py", *argv]
    [run] = doc["runs"]
    assert run["command"][1:] == ["perfbench/run.py", "--workload", "wide", "--seed", "1",
                                  "--seconds", "0.1", "--trace", "0"]
    assert (run["header"]["workload"], run["header"]["seed"]) == ("wide", 1)
    assert run["result"]["correct"] is True
    assert "ops_per_s" in run["result"]["metrics"]
    assert f"wrote {tmp_path / 'BENCH_t.json'}" in capsys.readouterr().out


@pytest.mark.parametrize("env", [
    pytest.param({"PATH": ""}, id="no-git"),
    pytest.param({"GIT_DIR": "not-a-repository"}, id="no-checkout"),
])
def test_bench_record_without_git(tmp_path, monkeypatch, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    _, doc = record_bench(tmp_path, monkeypatch)
    assert (doc["commit"], doc["dirty"]) == (None, None)
    assert doc["runs"][0]["result"]["correct"] is True


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_record_leaves_its_own_files_out_of_dirty(tmp_path, monkeypatch):
    # A clean checkout of what the script runs. Its BENCH_*.json outputs at
    # the top do not make the next recording dirty; any other untracked
    # file does.
    tree = tmp_path / "tree"
    root = SCRIPTS.parent
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("scripts", "perfbench", "src"):
        shutil.copytree(root / name, tree / name, ignore=ignore)
    shutil.copy(root / "BENCHMARK.json", tree)
    git = ["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, check=True, capture_output=True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    main = runpy.run_path(str(tree / "scripts" / "bench_record.py"),
                          run_name="script_under_test")["main"]
    dirty = []
    for label, extra in (("a", None), ("b", None), ("c", "notes.txt")):
        if extra:
            (tree / extra).write_text("untracked\n")
        assert main(["--label", label, "--workload", "wide", "--seeds", "1",
                     "--seconds", "0.1"]) == 0
        dirty.append(json.loads((tree / f"BENCH_{label}.json").read_text())["dirty"])
    assert dirty == [False, False, True]
