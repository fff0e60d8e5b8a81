"""Benchmark harness for critlocus: seeded workloads, verified items, timed.

    python3 critbench/run.py --workload ext-qq-n4 --seed 0 --seconds 55 --trace 0
    python3 critbench/run.py --workload all --seed 0 --seconds 55
    python3 critbench/run.py --workload battery --seed 3 --write-digests

One run imports critlocus from ``src/`` next to this directory, builds the
seeded corpus, verifies every item once and then repeats items until
``--seconds`` have gone by.  The workload is set up
(import plus the symbolic builds) ``SETUP_REPS`` times, half before the
items and half after them, and ``setup_s`` is the median.  The item
times are scaled by the run's machine-speed calibration (see calibrate.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one untraced pass is followed by
traced passes, the spans go to ``.bench_out/`` and the JSON carries the
per-layer metrics.  Every item is checked (model against oracle, Euler
characteristic, pairing, exit code, and its result digest against its first
run and against ``digests.json``); a failed check counts as a failed item
and the exit code is 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

from calibrate import Calibration
from spans import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPAN_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0
# never used while the benchmark or a change was tuned: confirm claims on it
HELDOUT_SEED = 7919
SETUP_REPS = 12
MODULES = (
    "scalars", "linalg", "superpoly", "complexes", "potential",
    "family", "points", "toric", "report", "cli",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "item_s_p50": "s",
    "item_s_p90": "s",
    "peak_rss_mb": "MB",
}


def load_critlocus():
    """Import critlocus afresh from ``src/`` and return its modules."""
    for name in [m for m in sys.modules if m == "critlocus" or m.startswith("critlocus.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("critlocus")
    if Path(pkg.__file__).resolve().parent != SRC / "critlocus":
        raise ImportError(f"critlocus was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"critlocus.{m}") for m in MODULES})


def set_up(workload, reps):
    """Time ``reps`` fresh imports plus shared builds; return the times and
    the modules and state of the last one."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        cl = load_critlocus()
        state = workload.prepare(cl)
        times.append(time.perf_counter() - start)
    return times, cl, state


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


class Run:
    """Items of one corpus, their timings, digests and failures."""

    def __init__(self, workload, cl, state, corpus, recorded):
        self.workload = workload
        self.cl = cl
        self.state = state
        self.corpus = corpus
        self.recorded = recorded  # item key -> digest, or None
        self.times = {key: [] for key, _ in corpus}
        self.digests = {}  # item key -> digest of its first run
        self.attempted = 0
        self.failed = 0
        self.prime_warnings = 0
        self.tracer = None
        self.calibration = None

    def item(self, key, inp):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.item = key
        if self.calibration is not None:
            self.calibration.sample()
        start = time.perf_counter()
        try:
            record, failures, warning = self.workload.run_item(self.cl, self.state, inp)
        except Exception as exc:  # a raising item is a failed item, not a crash
            record, failures, warning = None, [f"raised {exc!r}"], False
        self.times[key].append(time.perf_counter() - start)
        if threading.active_count() > 1:
            # they would slow the calibration kernel as well as the items
            failures.append(f"{threading.active_count() - 1} threads left running")
        if record is not None:
            d = digest(record)
            if self.digests.setdefault(key, d) != d:
                failures.append(f"digest {d} differs from this item's first run")
            if self.recorded is not None and self.recorded.get(key) != d:
                failures.append(f"digest {d} != recorded {self.recorded.get(key)}")
        if warning:
            self.prime_warnings += 1
            if self.tracer is not None:
                self.tracer.count("prime_warnings")
        if failures:
            self.failed += 1
            print(f"FAILED {self.workload.name} {key}: {'; '.join(failures)}", file=sys.stderr)

    def one_pass(self):
        """Run every item of the corpus once; return the time it took."""
        start = time.perf_counter()
        for key, inp in self.corpus:
            self.item(key, inp)
        return time.perf_counter() - start

    def item_times(self):
        """Each item's best time over its runs.  Slowdowns from other
        load come and go, so the best of a few repeats spread over the
        run is far steadier than their median."""
        return {key: min(t) for key, t in self.times.items() if t}


def measure(run, seconds):
    """One whole pass, then repeats until ``seconds`` have elapsed.

    Each repeat goes to the item with the fewest runs weighted by the
    square root of its first time, so a cheap item is repeated more often
    than a costly one and still spreads its runs over the whole run."""
    deadline = time.perf_counter() + seconds
    run.one_pass()
    weight = {key: t[0] ** 0.5 for key, t in run.times.items()}
    inputs = dict(run.corpus)
    while time.perf_counter() < deadline:
        key = min(run.corpus, key=lambda item: len(run.times[item[0]]) * weight[item[0]])[0]
        run.item(key, inputs[key])


def measure_traced(run, workload, seconds):
    """One untraced pass, then a traced set-up and traced whole passes."""
    deadline = time.perf_counter() + seconds
    untraced = run.one_pass()
    tracer = Tracer()
    tracer.install(run.cl)
    run.tracer = tracer
    try:
        tracer.item = "setup"
        run.state = workload.prepare(run.cl)
        setup_counters = dict(tracer.counters)
        traced = [run.one_pass()]
        while time.perf_counter() < deadline:
            traced.append(run.one_pass())
    finally:
        tracer.uninstall()
        run.tracer = None
    overhead = statistics.median(traced) / untraced - 1.0
    metrics = layer_metrics(
        tracer.spans, setup_counters, tracer.counters, len(traced), len(run.corpus), overhead
    )
    return metrics, tracer, len(traced)


def machine_record():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    try:
        setup_times, cl, state = set_up(workload, SETUP_REPS - SETUP_REPS // 2)
    except ImportError as exc:
        print(f"cannot import critlocus from the checkout: {exc}", file=sys.stderr)
        return 2
    corpus = workload.corpus(cl, args.seed)
    recorded = None
    if not args.write_digests:
        recorded = load_digests().get(workload.name, {}).get(str(args.seed))
    run = Run(workload, cl, state, corpus, recorded)

    if args.trace:
        metrics, tracer, passes = measure_traced(run, workload, args.seconds)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{workload.name}-{args.seed}.json"
        tracer.write(span_file)
        print(f"spans: {len(tracer.spans)} written to {span_file}", file=sys.stderr)
    else:
        run.calibration = Calibration()
        measure(run, args.seconds)
        passes = None
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the rest of the set-ups run after the items, so that setup_s
        # samples the start and the end of the run
        setup_times += set_up(workload, SETUP_REPS // 2)[0]
        per_item = sorted(run.item_times().values())
        measured = {
            "verdict_s": sum(per_item),
            "item_s_p50": statistics.median(per_item),
            "item_s_p90": statistics.quantiles(per_item, n=10, method="inclusive")[8],
        }
        factor = run.calibration.factor()
        # set-up is mostly importing modules, which the kernel does not model
        values = {"setup_s": statistics.median(setup_times)}
        values.update({k: v * factor for k, v in measured.items()})
        values["peak_rss_mb"] = rss_mb
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(
            "calibration "
            + json.dumps(
                {
                    "factor": factor,
                    "kernel_samples": len(run.calibration.samples),
                    "uncalibrated": measured,
                }
            )
        )

    if args.write_digests and run.failed:
        print("digests not recorded: some items failed", file=sys.stderr)
    elif args.write_digests:
        table = load_digests()
        table.setdefault(workload.name, {})[str(args.seed)] = dict(sorted(run.digests.items()))
        with open(DIGESTS, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':34s} {run.failed / run.attempted:.6g} ratio")
    print(
        "samples "
        + json.dumps(
            {
                "items_per_pass": len(corpus),
                "item_runs": run.attempted,
                "traced_passes": passes,
                "runs_per_item": [min(map(len, run.times.values())), max(map(len, run.times.values()))],
                "setup_reps": SETUP_REPS,
                "prime_warnings": run.prime_warnings,
                "digests_recorded": recorded is not None,
            }
        )
    )
    print(
        "item_seconds "
        + json.dumps({key: round(t, 4) for key, t in run.item_times().items()})
    )
    print("input " + json.dumps(workload.input_record(run.state, corpus), sort_keys=True))
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; fails if any of them fails."""
    ok = True
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        ok = ok and proc.returncode == 0
    print("all workloads: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests",
        action="store_true",
        help="record this seed's item digests in digests.json instead of checking them",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
