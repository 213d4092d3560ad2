"""Self-test of the benchmark harness at toy sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import Op

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, seed, trace, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_runs_report_every_declared_metric(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(_bench(workload, 5, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
            if group == "end_to_end":
                assert metric["value"] > 0, name


def test_counts_repeat_across_seeds():
    counts = []
    for seed in (1, 2):
        metrics = _result(_bench("generator-closure", seed, 1))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    # 8 logistics in the completed toy dictionary, 29 over the closure scales
    assert counts[0]["dictionary.join_completion.n_out"] == 37


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("sampling-stats", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_changed_output_counts_as_failure(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    state = {"n": 0}

    def drifting():
        state["n"] += 1
        (out / "x.txt").write_text(str(state["n"]))
        return 0

    loop = run.Loop([Op("cmd.drift", drifting, out), Op("cmd.bad", lambda: 3)])
    loop.run(0.0, 2)
    assert loop.attempted == 4
    assert sum("cmd.bad: exit 3" in f for f in loop.failures) == 2
    assert sum("cmd.drift: outputs differ" in f for f in loop.failures) == 1


def test_tracer_restores_functions_and_nests_spans():
    sys.path.insert(0, str(ROOT / "src"))
    from sillkoop import closure, dictionary

    original = dictionary.stable_sigmoid
    tracer = tracing.Tracer()
    names = tracer.install()
    try:
        assert "dictionary.stable_sigmoid" in names and "cli.cmd_fit" in names
        assert closure.stable_sigmoid is dictionary.stable_sigmoid is not original
        d = dictionary.SillDictionary(1, (dictionary.ConjLogistic([0.0], [2.0]),))
        dictionary.conj_values([[0.5]], d)
    finally:
        tracer.uninstall()
    assert dictionary.stable_sigmoid is original and closure.stable_sigmoid is original
    summary = tracing.summarize(tracer.spans)
    assert summary["dictionary.conj_values"]["children"] == {"dictionary.eval_conjunctive": 1}
    assert summary["dictionary.stable_sigmoid"]["work"] == {"elems": 1}
    assert all(v["self_s"] >= 0 for v in summary.values())


def test_unsteady_counts_flags_any_difference():
    a = {"f": {"calls": 2, "work": {}}}
    b = {"f": {"calls": 3, "work": {}}, "g": {"calls": 1, "work": {"elems": 4}}}
    assert run.unsteady_counts([a, a]) == []
    assert run.unsteady_counts([a, b]) == [("f", "calls"), ("g", "calls"), ("g", "elems")]
