"""Fast tests of the benchmark itself, on a tiny scale of each workload.

    python3 -m pytest perfbench -q        # from the root of a checkout
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import suite  # noqa: E402


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_per_layer_declaration_matches_code(declared):
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == layers.PER_LAYER


def test_workloads_are_declared(declared):
    assert [w["name"] for w in declared["workloads"]] == list(suite.WORKLOADS)


@pytest.mark.parametrize("workload", suite.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_runner_prints_exactly_the_declared_metrics(declared, workload,
                                                    trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = declared["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in metrics}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


@pytest.fixture(scope="module")
def summaries():
    """One tiny in-process unit of each workload, summarized."""
    scratch_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="test-", dir=scratch_root)
    out = {}
    for workload in suite.WORKLOADS:
        state = suite.setup(workload, 3, "inprocess", scratch, tiny=True)
        try:
            out[workload] = suite.summarize(
                state, suite.execute(state, "inprocess"))
        finally:
            state.close()
    os.rmdir(scratch)
    return out


def _corruptions():
    def cycle_cap(s):
        s["runs"][0]["cycles"] = suite.FAULT_FREE_CYCLE_CAP

    def lost_window(s):
        s["phases"][0]["windows"].pop()

    def quarantined(s):
        s["phases"][0]["quarantined"] = 1

    def fractions(s):
        s["phases"][0]["fractions"]["masked"] += 0.25

    def coverage(s):
        s["phases"][1]["coverage"] = 1.5

    def breakdown(s):
        s["phases"][1]["breakdown"]["no_trigger"] = -0.1

    def warm_render(s):
        s["warm_rendered"]["fig7"] += " "

    return [("faultfree-serial", cycle_cap),
            ("campaign-supervised", lost_window),
            ("campaign-supervised", quarantined),
            ("campaign-supervised", fractions),
            ("figures-quick", coverage),
            ("figures-quick", breakdown),
            ("figures-quick", warm_render)]


def test_gate_passes_clean_outputs(summaries):
    for summary in summaries.values():
        attempted, failures = suite.check(summary)
        assert attempted > 0 and failures == []


@pytest.mark.parametrize("workload,corrupt", _corruptions(),
                         ids=lambda c: getattr(c, "__name__", c))
def test_gate_fires_on_corrupted_output(summaries, workload, corrupt):
    summary = copy.deepcopy(summaries[workload])
    corrupt(summary)
    _attempted, failures = suite.check(summary)
    assert len(failures) == 1
    assert suite.digest(summary) != suite.digest(summaries[workload])
