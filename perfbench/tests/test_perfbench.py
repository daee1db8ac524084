"""Self-tests of the benchmark harness, on tiny commands.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = [
    ["list", "--algebra", "sl_r", "--n", "3", "--format", "json"],
    ["verify", "--algebra", "so_pq", "--p", "2", "--q", "1",
     "--format", "table", "--seed", "0"],
    ["describe", "--algebra", "so_pq", "--p", "2", "--q", "1",
     "--datum", "3", "--signs", "3:0", "--format", "json"],
]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def record(commands):
    """A reference for ``commands`` taken from one untraced pass."""
    outcomes = run.run_child(ROOT, commands, 0, 1, False)["passes"][0]["outcomes"]
    return {workloads.reference_key(argv): {"sha256": digest, "exit": code}
            for argv, (digest, code, _) in zip(commands, outcomes)}


@pytest.fixture(scope="module")
def reference():
    return record(TINY)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(reference, trace, section):
    result, _, bad = run.measure(ROOT, TINY, reference, 1, trace)
    assert (result["correct"], result["failed"], bad) == (True, 0, [])
    assert result["attempted"] >= len(TINY)
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_corrupted_digest_is_reported_as_a_failure(reference):
    key = workloads.reference_key(TINY[0])
    digest = reference[key]["sha256"]
    corrupted = dict(reference)
    corrupted[key] = {"sha256": digest[:-1] + ("0" if digest[-1] != "0" else "1"),
                      "exit": 0}
    result, runs, bad = run.measure(ROOT, TINY, corrupted, 1, False)
    passes = len(runs[0]["passes"])
    assert result["correct"] is False
    assert result["failed"] == passes
    assert bad == [" ".join(TINY[0])] * passes


def test_verify_other_than_pass_is_a_failure():
    faulty = [["verify", "--algebra", "sl_r", "--n", "3", "--format", "table",
               "--inject-fault"]]
    reference = record(faulty)
    assert reference[workloads.reference_key(faulty[0])]["exit"] == 1
    result, _, _ = run.measure(ROOT, faulty, reference, 1, False)
    assert result["correct"] is False and result["failed"] >= 1


def test_counts_repeat_across_traced_runs(reference, tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    first, _, _ = run.measure(ROOT, TINY, reference, 1, True, spans_path)
    second, _, _ = run.measure(ROOT, TINY, reference, 1, True)
    exact = [m["name"] for m in BENCH["per_layer"] if m["unit"] != "s"]
    assert {n: first["metrics"][n] for n in exact} == \
        {n: second["metrics"][n] for n in exact}
    assert first["metrics"]["matrices.matmul.calls"]["value"] > 0
    assert first["metrics"]["catalog.orbits"]["value"] > 0

    header, *spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert header == {"commands": TINY}
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        assert -1 <= span["parent"] < span["id"]
        assert 0 <= span["command"] < len(TINY)
    assert sum(s["name"] == "cli.main" for s in spans) == len(TINY)


def test_tracing_that_changes_output_fails_loudly(monkeypatch):
    def fake_child(root, commands, seconds, min_passes, trace, spans_path=None):
        digest = "b" * 64 if trace else "a" * 64
        return {"passes": [{"outcomes": [[digest, 0, True]]}]}
    monkeypatch.setattr(run, "run_child", fake_child)
    with pytest.raises(run.BenchmarkError, match="tracing changed the output"):
        run.per_layer(ROOT, TINY[:1], 1, BENCH["per_layer"], None)


def test_child_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("NILORB_THREADS", "4")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run.child_env(ROOT / "src")
    assert "NILORB_THREADS" not in env
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_workloads_are_seeded_and_recorded():
    reference = json.loads((HERE / "reference.json").read_text())
    for name, make in workloads.WORKLOADS.items():
        assert make(5) == make(5)
        assert sorted(map(workloads.reference_key, make(5))) == \
            sorted(map(workloads.reference_key, make(6)))
        assert all(workloads.reference_key(argv) in reference for argv in make(5))
    describe = workloads.describe(0)
    assert len(describe) == 154
    signed = [argv for argv in describe if argv[2] in ("so_pq", "sp_pq")]
    assert signed and all("--signs" in argv for argv in signed)


def test_recorded_reference_holds_for_describe():
    reference = json.loads((HERE / "reference.json").read_text())
    commands = workloads.describe(0)[:4]
    outcome = run.run_child(ROOT, commands, 0, 1, False)
    assert run.failures(commands, outcome, reference) == []


def test_run_without_a_source_tree_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
