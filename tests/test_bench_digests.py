"""The benchmark's seed-0 `battery` and `ext-qq-n4` items, run once in
process and compared with the digests the benchmark records in
critbench/digests.json, so a change to any item's output fails here
rather than only in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "critbench"


def _load_harness():
    """critbench/run.py, loaded by path; it imports workloads.py and its
    other siblings from its own directory."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("critbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


harness = _load_harness()


@pytest.mark.parametrize("name", ["battery", "ext-qq-n4"])
def test_seed_zero_items_match_the_recorded_digests(name):
    # the modules this session imported: the harness's own loader would
    # import critlocus afresh under every other test
    cl = SimpleNamespace(**{m: importlib.import_module(f"critlocus.{m}") for m in harness.MODULES})
    workload = harness.WORKLOADS[name]
    recorded = harness.load_digests()[name]["0"]
    corpus = workload.corpus(cl, 0)
    assert sorted(key for key, _ in corpus) == sorted(recorded)
    state = workload.prepare(cl)
    wrong = {}
    for key, inp in corpus:
        record, failures, _ = workload.run_item(cl, state, inp)
        got = harness.digest(record)
        if failures or got != recorded[key]:
            wrong[key] = {"failures": failures, "digest": got, "recorded": recorded[key]}
    assert not wrong
