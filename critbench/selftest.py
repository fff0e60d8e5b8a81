"""Self-tests of the benchmark harness.

    python3 -m pytest -q critbench/selftest.py

They use tiny corpora (rank 2 Ext, three cheap CLI invocations), so the
whole file runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# a seed with no recorded digests, so tiny corpora are not compared with them
SEED = 424242


class TinyBattery(workloads.BatteryWorkload):
    def corpus(self, cl, seed):
        argvs = [
            ["verify", "resolution"],
            ["partitions", "--n", "3"],
            ["toric", "cover-stats", "--surface", '{"base": "P2"}', "--trials", "3"],
        ]
        return [(" ".join(a), a + ["--seed", str(seed)]) for a in argvs]


TINY = {
    "ext-qq-n4": workloads.ExtWorkload("ext-qq-n4", 2, "QQ", 1, 1),
    "ext-gfp-n5": workloads.ExtWorkload("ext-gfp-n5", 2, "GF(p)", 1, 1),
    "battery": TinyBattery(),
}


def _benchmark_json():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_main(monkeypatch, name, trace):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "SETUP_REPS", 2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(
            ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
        )
    return code, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_named_metric(monkeypatch, name, trace):
    code, result = _run_main(monkeypatch, name, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tiny_run(name):
    workload = TINY[name]
    cl = bench.load_critlocus()
    state = workload.prepare(cl)
    return bench.Run(workload, cl, state, workload.corpus(cl, SEED), None), workload


def test_digest_gate_trips_on_a_perturbed_result(monkeypatch):
    run, _ = _tiny_run("ext-qq-n4")
    run.one_pass()
    assert run.failed == 0
    recorded = dict(run.digests)

    run, _ = _tiny_run("ext-qq-n4")
    run.recorded = recorded
    original = run.cl.family.ext_dims_at

    def perturbed(*args, **kwargs):
        # change a pairing rank but leave the verdict flags alone, so that
        # only the digest can notice
        out = original(*args, **kwargs)
        out["pairing_ranks"] = dict(out["pairing_ranks"])
        out["pairing_ranks"][(0, 3)] += 1
        return out

    monkeypatch.setattr(run.cl.family, "ext_dims_at", perturbed)
    run.one_pass()
    assert run.attempted == len(run.corpus)
    assert run.failed == len(run.corpus)


def test_failed_item_is_counted_not_raised():
    workload = TINY["battery"]
    cl = bench.load_critlocus()
    corpus = workload.corpus(cl, SEED) + [("bad", ["verify", "cdga", "--n", "0"])]
    run = bench.Run(workload, cl, workload.prepare(cl), corpus, None)
    run.one_pass()
    assert run.attempted == len(run.corpus)
    assert run.failed == 1


def test_calibration_scales_by_the_kernels_tenth_percentile():
    cal = calibrate.Calibration()
    # twice the reference time on most samples, the reference on just over a tenth
    cal.samples = [2 * calibrate.REFERENCE_S] * 89 + [calibrate.REFERENCE_S] * 11
    assert cal.factor() == pytest.approx(1.0)
    cal.samples = [2 * calibrate.REFERENCE_S] * 100
    assert cal.factor() == pytest.approx(0.5)
    # too few samples are topped up by running the kernel
    cal = calibrate.Calibration()
    assert cal.factor() > 0 and len(cal.samples) == calibrate.MIN_SAMPLES
    assert calibrate.reference_kernel() == 16


def test_item_leaving_a_thread_running_fails():
    import threading

    stop = threading.Event()

    class Leaky(TinyBattery):
        def run_item(self, cl, state, argv):
            threading.Thread(target=stop.wait).start()
            return super().run_item(cl, state, argv)

    workload = Leaky()
    cl = bench.load_critlocus()
    corpus = workload.corpus(cl, SEED)[:1]
    run = bench.Run(workload, cl, workload.prepare(cl), corpus, None)
    try:
        run.one_pass()
    finally:
        stop.set()
    assert run.failed == 1


def test_self_time_on_synthetic_nested_spans():
    # root 0..10 with children 1..3 and 2..6 (overlapping) and 8..9
    assert spans.self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 6.0), (8.0, 9.0)]) == pytest.approx(4.0)
    # a child sticking out of its parent only counts inside the parent
    assert spans.self_time((0.0, 2.0), [(1.0, 5.0)]) == pytest.approx(1.0)
    synthetic = [
        ("cli.main", 0.0, 10.0, -1, "a"),
        ("family.ext_dims_at", 1.0, 7.0, 0, "a"),
        ("linalg.rank", 2.0, 3.0, 1, "a"),
        ("linalg.rank", 4.0, 6.0, 1, "a"),
        ("linalg.rank", 8.0, 9.0, 0, "a"),
        ("linalg.kernel", 9.0, 9.5, 0, "a"),
        ("linalg.kernel", 9.1, 9.4, 5, "a"),  # rref inside kernel_basis
    ]
    totals = spans._span_totals(synthetic)
    assert totals[("cli.main", "items")]["self_s"] == pytest.approx(2.5)
    assert totals[("family.ext_dims_at", "items")]["self_s"] == pytest.approx(3.0)
    assert totals[("linalg.rank", "items")]["calls"] == 3
    assert totals[("linalg.rank", "items")]["s"] == pytest.approx(4.0)
    assert totals[("linalg.kernel", "items")]["calls"] == 1
    assert totals[("linalg.kernel", "items")]["s"] == pytest.approx(0.5)
    metrics = spans.layer_metrics(synthetic, {}, {}, passes=2, items_per_pass=1, overhead_frac=0.5)
    assert metrics["cli.main.self_s"]["value"] == pytest.approx(1.25)
    assert metrics["linalg.eliminations_per_point"]["value"] == pytest.approx(2.0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_give_identical_digests(name):
    plain, _ = _tiny_run(name)
    bench.measure(plain, 0)
    traced, workload = _tiny_run(name)
    _, tracer, _ = bench.measure_traced(traced, workload, 0)
    assert tracer.spans
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests
    # uninstall restored every original
    assert not hasattr(traced.cl.family.ext_dims_at, "__wrapped__")
    assert not hasattr(traced.cl.linalg.DenseMatrix.rank, "__wrapped__")
