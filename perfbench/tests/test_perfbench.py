"""Tests of the benchmark itself: metrics emitted, oracles armed, spans.

Run with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from spans import Tracer, layer_totals, self_times

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

#: A layer each workload must exercise, and layers it must leave idle.
BUSY = {
    "pipeline": ("workload.emit_s", "logs.merge_s", "core.sessionize_s"),
    "fits": ("stats.expmix_s", "stats.gmm_s", "stats.se_s"),
    "replay-clean": ("service.client_s", "service.frontend_s", "service.telemetry_s"),
    "replay-chaos": ("service.metadata_s", "faults.plan_s", "faults.plan_calls"),
}
IDLE = {
    "pipeline": ("stats.expmix_s", "service.client_s"),
    "fits": ("workload.emit_s", "service.client_s"),
    "replay-clean": ("faults.plan_calls", "workload.emit_s", "stats.expmix_s"),
    "replay-chaos": ("workload.emit_s", "stats.expmix_s"),
}

#: Sizes at which every workload runs in about a second.
TINY = {
    "pipeline": {**workloads.PARAMS["pipeline"], "mobile_users": 40, "pc_only_users": 5,
                 "block_rows": 64},
    "fits": {**workloads.PARAMS["fits"], "max_components": 3,
             "gmm_samples": 1000, "se_users": 1000},
    "replay-clean": {**workloads.PARAMS["replay-clean"], "users": 6},
    "replay-chaos": {**workloads.PARAMS["replay-chaos"], "users": 6},
}


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    for name, params in TINY.items():
        monkeypatch.setitem(workloads.PARAMS, name, params)


def run_tiny(capsys, tmp_path, workload, trace=0):
    code = run.main(
        [
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0",
            "--trace", str(trace),
            "--workdir", str(tmp_path),
        ]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(capsys, tmp_path, workload):
    code, result = run_tiny(capsys, tmp_path, workload)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(capsys, tmp_path, workload):
    code, result = run_tiny(capsys, tmp_path, workload, trace=1)
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(values[name] > 0 for name in BUSY[workload])
    assert all(values[name] == 0 for name in IDLE[workload])
    if workload == "pipeline":
        assert values["logs.blocks"] > 1
    assert 0.5 < values["trace.covered_share"] <= 1.0
    spans = (tmp_path / f"spans-{workload}.jsonl").read_text().splitlines()
    assert len(spans) == values["trace.spans"]
    rows = [json.loads(line) for line in spans]
    assert set(rows[0]) == {"id", "name", "start", "end", "parent", "rid"}
    assert rows[0]["name"] == "bench.run" and rows[0]["parent"] == -1
    assert all(row["start"] <= row["end"] for row in rows)


def test_broken_pipeline_oracle_fails_the_run(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "reference_digest", lambda trace: "not a digest")
    code, result = run_tiny(capsys, tmp_path, "pipeline")
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_broken_fits_oracle_fails_the_run(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "_ratio_ok", lambda measured, planted, tolerance: False)
    code, result = run_tiny(capsys, tmp_path, "fits")
    assert code != 0 and not result["correct"]


def test_replay_digest_must_repeat(capsys, tmp_path, monkeypatch):
    original = workloads.Replay.check

    def forget_first_digest(self, inputs, output):
        self.state["log_digest"] = "from another run"
        return original(self, inputs, output)

    monkeypatch.setattr(workloads.Replay, "check", forget_first_digest)
    code, result = run_tiny(capsys, tmp_path, "replay-clean")
    assert code != 0 and not result["correct"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_children_once():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9] -> c [6, 7]
    tracer = Tracer()
    spans = [("root", 0, 10, -1), ("a", 1, 4, 0), ("b", 2, 3, 1), ("c", 5, 9, 0), ("c", 6, 7, 3)]
    for name, start, end, parent in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.rid.append(-1)
    cols = tracer.arrays()
    own = self_times(cols["end"] - cols["start"], cols["parent"])
    assert own.tolist() == [3.0, 2.0, 1.0, 3.0, 1.0]
    totals = layer_totals(tracer)
    assert totals["c"]["self_s"] == 4.0 and totals["c"]["calls"] == 1
    assert totals["root"]["self_s"] == 3.0
    assert np.isclose(sum(t["self_s"] for t in totals.values()), 10.0)


def test_end_to_end_times_are_scaled_by_the_median_slowdown():
    from types import SimpleNamespace

    def rep(setup_s, run_s, slowdowns):
        outcome = SimpleNamespace(offered=100, completed=100)
        return SimpleNamespace(setup_samples=[setup_s], run_s=run_s, slowdowns=slowdowns,
                               outcome=outcome, peak_rss_mb=1.0)

    # Samples 1, 2, 2, 4: the host ran at half speed for most of the run.
    reps = [rep(0.2, 2.0, [1.0, 2.0]), rep(0.2, 2.0, [2.0, 4.0])]
    metrics = run.end_to_end(reps)
    assert run.slowdown(reps) == 2.0
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["work_per_s"] == pytest.approx(100.0)
