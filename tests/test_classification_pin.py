"""Fault classification pinned against a fixed reference.

The timing pin fixes *when* a fault-free run does things; this suite
fixes what the tandem classifier concludes about each injected fault. A
host-side rewrite of the output comparison, the fork or the faulty
stepping must leave every window's verdict and audit coordinates exactly
as recorded: a small characterization of mcf and apache, then a
FaultHound coverage phase over each one's SDC faults.

``tests/data/classification_pin.json`` holds the reference. Regenerate
it (only for an intended change to classification, recorded in
CHANGES.md) with::

    PYTHONPATH=src python tests/test_classification_pin.py
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.harness.experiment import SCALES, ExperimentContext

DATA = pathlib.Path(__file__).parent / "data" / "classification_pin.json"

BENCHMARKS = ("mcf", "apache")
NUM_FAULTS = 40
COVERAGE_SCHEME = "faulthound"
#: The per-window facts pinned: the verdict, what decided it, and the
#: audit trail's cycle coordinates.
FIELDS = ("applied", "state_equal", "hung", "extra_exceptions",
          "inject_cycle", "first_trigger_cycle")


def _windows(results) -> list:
    return [dict({name: getattr(w, name) for name in FIELDS},
                 fault_class=w.fault_class.value if w.fault_class else None)
            for w in results]


def measure() -> dict:
    cfg = replace(SCALES["quick"], benchmarks=BENCHMARKS,
                  num_faults=NUM_FAULTS)
    ctx = ExperimentContext(cfg, jobs=1)
    out = {}
    for benchmark in BENCHMARKS:
        campaign = ctx.build_campaign(benchmark)
        characterization = campaign.characterize()
        coverage = campaign.run_coverage(
            COVERAGE_SCHEME,
            lambda: ctx.make_core(benchmark, COVERAGE_SCHEME),
            characterization)
        out[f"{benchmark}/characterize"] = _windows(
            characterization.characterization)
        out[f"{benchmark}/coverage/{COVERAGE_SCHEME}"] = _windows(
            coverage.coverage_results)
    return out


@pytest.fixture(scope="module")
def measured() -> dict:
    return measure()


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(DATA.read_text())


def test_reference_covers_every_phase(reference, measured):
    assert sorted(reference) == sorted(measured)
    # the coverage half pins real work only if the campaigns found SDCs
    assert all(reference[key] for key in reference)


@pytest.mark.parametrize("phase", ["characterize",
                                   f"coverage/{COVERAGE_SCHEME}"])
@pytest.mark.parametrize("profile", BENCHMARKS)
def test_classification_matches_reference(reference, measured,
                                          profile, phase):
    key = f"{profile}/{phase}"
    assert measured[key] == reference[key]


if __name__ == "__main__":
    DATA.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
