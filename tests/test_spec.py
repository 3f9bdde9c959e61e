"""Spec-compiler tests: sweep expansion, content-addressed dedup,
validation bounds shared with the CLI, and the golden-file round-trip.

The compiler is a pure function, so the golden files under
``tests/data/`` pin its observable output byte-for-byte: any change to
expansion order, defaults, key derivation or JSON layout shows up as a
diff against ``campaign.run.golden.json``.
"""

import json
import pathlib

import pytest

from repro.harness.spec import (SRC_KIND, SpecError, TASK_DEFAULTS,
                                compile_file, compile_spec, load_run,
                                run_path_for, task_argv, task_key,
                                validate_run)

DATA = pathlib.Path(__file__).parent / "data"


def _src(**overrides):
    document = {"kind": SRC_KIND, "version": 1, "name": "t",
                "defaults": {"benchmark": "mcf", "faults": 5}}
    document.update(overrides)
    return document


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------
class TestExpansion:
    def test_defaults_only_compiles_to_one_task(self):
        run = compile_spec(_src())
        assert len(run["tasks"]) == 1
        task = run["tasks"][0]
        assert task["benchmark"] == "mcf" and task["faults"] == 5
        # every knob is explicit in the run layer
        assert set(TASK_DEFAULTS) | {"key"} == set(task)

    def test_sweep_is_a_cross_product_over_defaults(self):
        run = compile_spec(_src(sweep={"benchmark": ["mcf", "bzip2"],
                                       "scheme": ["faulthound", "pbfs"],
                                       "faults": [5, 10]}))
        assert len(run["tasks"]) == 8
        combos = {(t["benchmark"], t["scheme"], t["faults"])
                  for t in run["tasks"]}
        assert len(combos) == 8
        assert all(t["seed"] == TASK_DEFAULTS["seed"]
                   for t in run["tasks"])

    def test_explicit_tasks_merge_over_defaults(self):
        run = compile_spec(_src(tasks=[{"scheme": "pbfs"},
                                       {"benchmark": "bzip2"}]))
        assert [t["scheme"] for t in run["tasks"]] == ["pbfs",
                                                       "faulthound"]
        assert [t["benchmark"] for t in run["tasks"]] == ["mcf", "bzip2"]

    def test_empty_sweep_axis_is_an_error_not_zero_tasks(self):
        with pytest.raises(SpecError, match="empty"):
            compile_spec(_src(sweep={"benchmark": []}))


# ----------------------------------------------------------------------
# content-addressed keys and dedup
# ----------------------------------------------------------------------
class TestKeys:
    def test_key_depends_only_on_simulation_knobs(self):
        base = {"benchmark": "mcf", "scheme": "faulthound", "faults": 5}
        assert task_key(base) == task_key(dict(base))
        assert task_key(base) != task_key(dict(base, faults=6))
        assert task_key(base) != task_key(dict(base, scheme="pbfs"))

    def test_overlapping_axes_dedup_by_key(self):
        # the explicit task duplicates one sweep combination exactly
        run = compile_spec(_src(
            sweep={"scheme": ["faulthound", "pbfs"]},
            tasks=[{"scheme": "pbfs"}]))
        assert len(run["tasks"]) == 2
        assert run["deduped"] == 1
        keys = [t["key"] for t in run["tasks"]]
        assert len(keys) == len(set(keys))

    def test_compilation_is_deterministic(self):
        src = _src(sweep={"benchmark": ["mcf", "bzip2"],
                          "faults": [5, 10]})
        first = json.dumps(compile_spec(src), sort_keys=True)
        second = json.dumps(compile_spec(dict(src)), sort_keys=True)
        assert first == second


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_unknown_benchmark_and_scheme_rejected(self):
        with pytest.raises(SpecError, match="benchmark"):
            compile_spec(_src(defaults={"benchmark": "nonesuch"}))
        with pytest.raises(SpecError, match="scheme"):
            compile_spec(_src(defaults={"benchmark": "mcf",
                                        "scheme": "nonesuch"}))

    def test_numeric_bounds(self):
        with pytest.raises(SpecError, match="faults"):
            compile_spec(_src(defaults={"benchmark": "mcf", "faults": 0}))
        with pytest.raises(SpecError, match="jobs"):
            compile_spec(_src(defaults={"benchmark": "mcf", "jobs": 0}))
        with pytest.raises(SpecError, match="chunk_timeout"):
            compile_spec(_src(defaults={"benchmark": "mcf",
                                        "chunk_timeout": -1}))

    def test_unknown_fields_rejected_everywhere(self):
        with pytest.raises(SpecError, match="bogus"):
            compile_spec(_src(bogus=1))
        with pytest.raises(SpecError, match="bogus"):
            compile_spec(_src(defaults={"benchmark": "mcf", "bogus": 1}))
        with pytest.raises(SpecError, match="bogus"):
            compile_spec(_src(sweep={"bogus": [1]}))
        with pytest.raises(SpecError, match="bogus"):
            compile_spec(_src(tasks=[{"bogus": 1}]))
        # a retired knob is just another unknown field
        with pytest.raises(SpecError,
                           match="unknown task field 'batch_lanes'"):
            compile_spec(_src(tasks=[{"benchmark": "mcf",
                                      "batch_lanes": 4}]))

    def test_wrong_kind_and_version_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            compile_spec({"kind": "other", "version": 1})
        with pytest.raises(SpecError, match="version"):
            compile_spec({"kind": SRC_KIND, "version": 99})

    def test_validate_run_catches_tampered_key(self):
        run = compile_spec(_src())
        assert validate_run(run) == []
        run["tasks"][0]["key"] = "0" * 16
        assert any("key" in error for error in validate_run(run))


# ----------------------------------------------------------------------
# CLI parity
# ----------------------------------------------------------------------
class TestTaskArgv:
    def test_every_knob_is_explicit(self):
        run = compile_spec(_src(defaults={
            "benchmark": "mcf", "faults": 5,
            "no_cache": True, "chunk_timeout": 2.5, "jobs": 3}))
        argv = task_argv(run["tasks"][0], run_dir="/r")
        text = " ".join(argv)
        assert argv[0] == "campaign" and argv[1] == "mcf"
        assert "--jobs 3" in text
        assert "--no-cache" in text
        assert "--chunk-timeout 2.5" in text
        assert "--run-dir /r" in text

    def test_argv_parses_back_through_the_real_parser(self):
        from repro.cli import build_parser
        run = compile_spec(_src())
        args = build_parser().parse_args(task_argv(run["tasks"][0]))
        assert args.command == "campaign" and args.name == "mcf"
        assert args.faults == 5


# ----------------------------------------------------------------------
# golden-file round-trip
# ----------------------------------------------------------------------
class TestGoldenRoundTrip:
    def test_src_compiles_byte_for_byte_to_golden_run(self, tmp_path):
        src = tmp_path / "campaign.src.json"
        src.write_text((DATA / "campaign.src.json").read_text())
        out = compile_file(src)
        assert out == tmp_path / "campaign.run.json"
        assert out.read_text() == (DATA
                                   / "campaign.run.golden.json").read_text()

    def test_load_run_accepts_both_layers_identically(self, tmp_path):
        from_src = load_run(DATA / "campaign.src.json")
        from_run = load_run(DATA / "campaign.run.golden.json")
        assert from_src == from_run

    def test_run_path_convention(self):
        assert run_path_for("a/b/x.src.json") == pathlib.Path(
            "a/b/x.run.json")
        assert run_path_for("x.json") == pathlib.Path("x.run.json")
