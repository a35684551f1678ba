"""Fast tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    name: dataclasses.replace(wl, samples=4, check_samples=3, queries=20)
    for name, wl in run.WORKLOADS.items()
}


def tiny_session(tmp_path, workload="session-deg1") -> run.Session:
    s = run.Session(TINY[workload], 7, tmp_path)
    s.setup()
    return s


def test_gate_passes_correct_queries(tmp_path):
    s = tiny_session(tmp_path)
    s.run_queries(0)
    assert s.attempted > 20 and s.failed == 0


@pytest.mark.parametrize("name, wrong", [
    ("phi", lambda phi: lambda f, z: phi(f, z) * (1.0 + 1e-6)),
    # A tail bound that blew up would let any phi through the phi check.
    ("tail_bound", lambda tail_bound: lambda f, y: math.inf),
    ("tail_bound", lambda tail_bound: lambda f, y: 10.0 * tail_bound(f, y)),
])
def test_gate_catches_wrong_query_result(tmp_path, monkeypatch, name, wrong):
    s = tiny_session(tmp_path)
    monkeypatch.setattr(s.nh, name, wrong(getattr(s.nh, name)))
    s.run_queries(0)
    assert s.failed / s.attempted > 0


def test_gate_catches_flipped_exit_code(tmp_path, monkeypatch):
    s = tiny_session(tmp_path)
    idx, neg = len(s.commands) - 1, s.commands[-1]
    assert neg.expect == 1
    s.run_command(idx, neg, 0)
    assert s.failed == 0
    spawn = run._spawn

    def flipped(argv, cwd):
        proc = spawn(argv, cwd)
        proc.returncode = 0 if proc.returncode else 1
        return proc

    monkeypatch.setattr(run, "_spawn", flipped)
    s.run_command(idx, neg, 1)
    assert s.failed / s.attempted > 0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.5, 5.0, 0],  # overlaps a: the children cover [1, 5]
        ["c", 9.0, 12.0, 0],  # clipped at the parent's end: covers [9, 10]
        ["d", 1.5, 2.0, 1],  # a grandchild counts against a, not root
    ]
    out = tracer.summarize(spans)["spans"]
    assert out["root"]["self_s"] == pytest.approx(10.0 - 5.0)
    assert out["a"]["self_s"] == pytest.approx(2.0 - 0.5)
    assert out["b"]["self_s"] == pytest.approx(2.5)
    assert out["c"]["self_s"] == pytest.approx(3.0)
    assert out["d"]["self_s"] == pytest.approx(0.5)


def test_traced_counts_repeat_and_match_benchmark_json():
    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "ratio")}

    first = run.run("session-deg2", 3, 0, True, wl=TINY["session-deg2"])
    second = run.run("session-deg2", 3, 0, True, wl=TINY["session-deg2"])
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert counts(first)["growth.phi_per_sample"] > 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(k, m["unit"]) for k, m in first["metrics"].items()] == [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert list(run.END_TO_END_UNITS.items()) == [(m["name"], m["unit"]) for m in spec["end_to_end"]]
