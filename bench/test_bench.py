"""Tests of the benchmark itself.

Tiny versions of each workload must pass every check through the real child
process, and deliberately corrupted artifacts must be counted as failed
replicates.  Run from the repository root::

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types

import pytest

import checks
import speed
import run
import spans
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Shapes small enough for a test that still train visibly, so the loss and
# claim checks pass on every seed tried (0..29).
TINY = {
    "ref-compare": dict(
        n_devices=10, m=30, d=3, o=3, steps=200, schedule={"kind": "inverse", "c": 1e-3}
    ),
    "fleet-setup": dict(n_devices=40, m=12, d=3, o=2, steps=8),
    "long-trace": dict(n_devices=4, m=20, steps=200, replicates=3),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def invoke(wl, tmp_path, traced=False, seed=5, tag="inv"):
    return run.run_invocation(wl, seed, tmp_path / tag, traced, timeout=120)


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_every_check(name, tmp_path):
    wl = tiny(name)
    invs = [
        invoke(wl, tmp_path, traced=False, tag="a"),
        invoke(wl, tmp_path, traced=True, tag="b"),
        invoke(wl, tmp_path, traced=False, tag="c"),
        invoke(wl, tmp_path, traced=True, tag="d"),
    ]
    for inv in invs:
        assert inv.rc == 0 and not inv.failed, inv.messages
    # Only untraced invocations carry the speed probe.
    assert all(inv.probe_s == 0 for inv in invs if inv.traced)
    assert all(inv.slowness > 0 for inv in invs)
    # Tracing must not change what the program computes.
    assert all(inv.digests == invs[0].digests for inv in invs)

    for trace in (False, True):
        result, report = run.summarise(wl, 5, 1.0, trace, invs, SPEC)
        assert result["correct"], report["failures"]
        assert result["attempted"] == 4 * wl.attempted_replicates
        assert result["failed"] == 0
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in listed]
    assert report["absent"] == []
    for inv in invs[1::2]:
        analysis = inv.analysis
        assert analysis["self_sum_error_s"] < run.SPAN_TOLERANCE_S
        assert analysis["wall_s"] <= inv.wall_s
        assert analysis["by_name"]["training.train"]["work"] == (
            wl.replicate_steps + (wl.steps if name == "long-trace" else 0)
        )


@pytest.fixture(scope="module")
def long_trace(tmp_path_factory):
    """A passing tiny long-trace invocation and the directory of its artifacts."""
    wl = tiny("long-trace")
    workdir = tmp_path_factory.mktemp("lt") / "inv"
    inv = run.run_invocation(wl, 7, workdir, False, timeout=120)
    assert not inv.failed, inv.messages
    return wl, inv, workdir / "out"


def _corrupt(src, tmp_path, edit):
    out = tmp_path / "out"
    shutil.copytree(src, out)
    path = out / "trace.csv"
    path.write_text(edit(path.read_text()))
    return out


def _set_alpha(replicate: int, t: int, value: str):
    def edit(text: str) -> str:
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            fields = line.split(",")
            if fields[:2] == [str(replicate), str(t)]:
                fields[2] = value
                lines[i] = ",".join(fields)
        return "".join(lines)

    return edit


def test_alpha_out_of_range_fails_its_replicate(long_trace, tmp_path):
    wl, _, src = long_trace
    out = _corrupt(src, tmp_path, _set_alpha(replicate=1, t=3, value="1.5"))
    failed, messages = checks.check_artifacts(wl, out)
    assert failed == {1}
    assert "alpha_t=1.5" in messages[0]


def test_truncated_trace_fails_the_cut_replicates(long_trace, tmp_path):
    wl, _, src = long_trace
    keep = 1 + wl.steps + wl.steps // 2  # header, replicate 0, half of replicate 1
    out = _corrupt(src, tmp_path, lambda text: "".join(text.splitlines(keepends=True)[:keep]))
    failed, _ = checks.check_artifacts(wl, out)
    assert failed == {1, 2}


def test_corrupted_artifact_counts_in_ops_failed_ratio(long_trace, tmp_path):
    wl, inv, src = long_trace
    out = _corrupt(src, tmp_path, _set_alpha(replicate=0, t=0, value="1.5"))
    failed, messages = checks.check_artifacts(wl, out)
    bad = dataclasses.replace(inv, failed=failed, messages=messages)
    result, report = run.summarise(wl, 7, 1.0, False, [inv, bad], SPEC)
    assert not result["correct"]
    assert result["failed"] == 1
    assert report["ops_failed_ratio"] == 1 / (2 * wl.replicates)


def test_changed_bytes_fail_every_replicate_of_the_invocation(long_trace):
    wl, inv, _ = long_trace
    other = dataclasses.replace(inv, digests={**inv.digests, "trace.csv": "0" * 64})
    result, report = run.summarise(wl, 7, 1.0, False, [inv, other], SPEC)
    assert result["failed"] == wl.replicates
    assert "differ" in report["failures"][0]


def test_comparison_claim_and_row_checks(tmp_path):
    wl = tiny("ref-compare")
    rows = ["noise_sigma_sq,method,seed,final_loss"]
    for level in wl.noise_levels:
        for method, loss in (("acfl", 1.0), ("na", 2.0)):
            rows += [f"{level!r},{method},{r},{loss!r}" for r in range(wl.replicates)]
    path = tmp_path / "comparison.csv"
    path.write_text("\n".join(rows) + "\n")
    assert checks.check_artifacts(wl, tmp_path) == (set(), [])

    # The baseline beats the adaptive method at high noise: the claim fails
    # for every replicate at that level, and only there.
    text = path.read_text()
    path.write_text(text.replace(",na,", ",x,").replace(",acfl,", ",na,").replace(",x,", ",acfl,"))
    failed, messages = checks.check_artifacts(wl, tmp_path)
    assert failed == {k for k in checks.replicate_ids(wl) if k[0] == wl.claim_level}
    assert "exceeds" in messages[0]

    path.write_text("\n".join(rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ",nan"]) + "\n")
    failed, _ = checks.check_artifacts(wl, tmp_path)
    assert failed == {(wl.noise_levels[-1], "na", wl.replicates - 1)}


def test_program_error_fails_every_replicate(tmp_path):
    wl = dataclasses.replace(tiny("fleet-setup"), m=2)  # m <= d: the CLI exits 2
    inv = invoke(wl, tmp_path)
    assert inv.rc == 2
    assert inv.failed == set(checks.replicate_ids(wl))


def test_missing_layer_is_reported_absent(monkeypatch):
    layer = types.ModuleType("fake_layer")
    layer.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    monkeypatch.setattr(
        spans,
        "TARGETS",
        (
            ("fake_layer", "present", "fake.present"),
            ("fake_layer", "deleted", "fake.deleted"),
            ("fake_layer_gone", "f", "gone.f"),
        ),
    )
    tracer = spans.Tracer()
    tracer.install()
    root = tracer.wrap(lambda: layer.present(1), spans.ROOT)
    assert root() == 2
    assert tracer.absent == ["fake.deleted", "gone.f"]
    analysis = spans.analyse(tracer.spans)
    assert analysis["by_name"]["fake.present"]["calls"] == 1
    assert analysis["self_sum_error_s"] < 1e-12


def test_self_times_add_up_to_the_root():
    s = [
        (spans.ROOT, 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("a", 5.0, 6.0, 0, 0),
    ]
    analysis = spans.analyse(s)
    assert analysis["wall_s"] == 10.0
    assert analysis["by_name"]["a"]["total_s"] == 4.0
    assert analysis["by_name"]["a"]["self_s"] == 3.0
    assert analysis["by_name"][spans.ROOT]["self_s"] == 6.0
    assert analysis["self_sum_error_s"] == 0.0


def test_probe_samples_every_kernel_during_the_call():
    p = speed.SpeedProbe()
    p.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.3:
        pass
    p.stop()
    wall = time.perf_counter() - start
    taken = sum(len(v) for v in p.samples.values())
    p.top_up()
    assert taken >= 4  # about 0.3 s / INTERVAL_S ticks, one kernel each
    assert 0 < p.inside_s < wall
    assert all(len(v) >= speed.MIN_SAMPLES for v in p.samples.values())
    assert p.slowness() > 0

    # Without a call to sample, the top-up alone gives the slowness.
    idle = speed.SpeedProbe()
    idle.stop()
    idle.top_up()
    assert idle.inside_s == 0 and idle.slowness() > 0


def test_percentiles_need_ten_samples_above():
    assert spans.percentiles(range(20))["p_high"] is None
    p = spans.percentiles(range(40))
    assert (p["p_high"], p["q"], p["n"]) == (29, 75.0, 40)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "long-trace", "--seed", "1"]
        + ["--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
