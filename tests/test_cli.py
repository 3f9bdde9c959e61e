"""CLI tests (in-process, via main(argv))."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_shows_everything(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "mcf" in out and "faulthound" in out and "fig9" in out


def test_run_program(tmp_path, capsys):
    source = tmp_path / "prog.asm"
    source.write_text("""
        movi r1, 5
        movi r2, 6
        add  r3, r1, r2
        halt
    """)
    code, out, _ = run_cli(capsys, "run", str(source), "--scheme", "baseline")
    assert code == 0
    assert "committed" in out
    assert "0xb" in out  # r3 == 11


def test_run_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent.asm")
    assert code == 1
    assert "error" in err


def test_run_bad_assembly(tmp_path, capsys):
    source = tmp_path / "bad.asm"
    source.write_text("bogus r1")
    code, _, err = run_cli(capsys, "run", str(source))
    assert code == 1
    assert "unknown mnemonic" in err


def test_bench_command(capsys):
    code, out, _ = run_cli(capsys, "bench", "gamess",
                           "--scheme", "fh-backend",
                           "--instructions", "2500")
    assert code == 0
    assert "perf degradation" in out
    assert "false-positive rate" in out


def test_campaign_command(capsys):
    code, out, _ = run_cli(capsys, "campaign", "bzip2", "--faults", "10")
    assert code == 0
    assert "masked" in out
    assert "coverage" in out


def test_figure_table2(capsys):
    code, out, _ = run_cli(capsys, "figure", "table2")
    assert code == 0
    assert "Re-order Buffer" in out


def test_parser_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "nonesuch"])


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv", [
    ["campaign", "mcf", "--no-supervise"],
    ["campaign", "mcf", "--fabric", "fab"],
    ["resume", "run", "--fabric", "fab"],
    ["agent", "list", "--fabric", "fab"],
])
def test_parser_has_one_campaign_route(argv):
    """Every campaign runs under the supervisor on this host: the
    unsupervised and agent-fabric knobs are gone, not ignored."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["serve", "sd"],
    ["submit", "x.src.json", "--serve-dir", "sd"],
    ["jobs", "list", "sd"],
])
def test_parser_has_no_job_server(capsys, argv):
    """A sweep is `repro compile` plus a loop over `repro campaign`:
    the job server's subcommands are gone, not ignored."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_campaign_rejects_retired_lane_flag(capsys):
    """Faults run one clone per window; there is no lane-batch flag,
    so the parser rejects it like any unknown argument."""
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "mcf", "--batch-lanes", "8"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["campaign", "mcf", "--jobs", "0"], "must be >= 1"),
    (["campaign", "mcf", "--jobs", "-3"], "must be >= 1"),
    (["figure", "fig7", "--jobs", "0"], "must be >= 1"),
    (["resume", "run", "--jobs", "0"], "must be >= 1"),
    (["campaign", "mcf", "--faults", "0"], "must be >= 1"),
    (["campaign", "mcf", "--chunk-windows", "0"], "must be >= 1"),
    (["campaign", "mcf", "--max-retries", "-1"], "must be >= 0"),
    (["campaign", "mcf", "--chunk-timeout", "-5"], "must be > 0"),
    (["campaign", "mcf", "--chunk-timeout", "0"], "must be > 0"),
    (["campaign", "mcf", "--chunk-timeout", "nan"], "must be > 0"),
    (["campaign", "mcf", "--jobs", "two"], "is not an integer"),
    (["campaign", "mcf", "--faults", "-3"], "must be >= 1"),
])
def test_parser_rejects_bad_execution_values(capsys, argv, message):
    """Regression: these used to be clamped silently (exit 0) although
    the spec compiler rejects the same values."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_parser_accepts_execution_bounds():
    args = build_parser().parse_args(
        ["campaign", "mcf", "--jobs", "1", "--chunk-windows", "1",
         "--max-retries", "0", "--chunk-timeout", "0.5"])
    assert (args.jobs, args.chunk_windows, args.max_retries,
            args.chunk_timeout) == (1, 1, 0, 0.5)


@pytest.mark.parametrize("field, value", [
    ("jobs", 0), ("chunk_windows", 0), ("max_retries", -1),
    ("chunk_timeout", -5), ("faults", 0), ("seed", "3")])
def test_resume_rejects_bad_saved_execution_values(tmp_path, capsys,
                                                   field, value):
    saved = {"command": "campaign", "name": "mcf", "scheme": "faulthound",
             "faults": 2, "seed": 3, "jobs": 1, "no_cache": True,
             "max_retries": 3, "chunk_timeout": None, "chunk_windows": 8,
             field: value}
    (tmp_path / "campaign.json").write_text(json.dumps(saved))
    code, out, err = run_cli(capsys, "resume", str(tmp_path))
    assert code == 1
    assert out == ""
    assert f"{field} must be" in err
    assert not (tmp_path / "journal.jsonl").exists()


def test_compile_command_writes_run_layer(tmp_path, capsys):
    spec = tmp_path / "c.src.json"
    spec.write_text(json.dumps({
        "kind": "repro.campaign.src", "version": 1, "name": "c",
        "defaults": {"benchmark": "mcf", "faults": 5},
        "sweep": {"scheme": ["faulthound", "pbfs"]}}))
    code, out, _ = run_cli(capsys, "compile", str(spec))
    assert code == 0
    assert "2 task" in out
    compiled = json.loads((tmp_path / "c.run.json").read_text())
    assert compiled["kind"] == "repro.campaign.run"
    assert len(compiled["tasks"]) == 2


def test_compile_rejects_invalid_spec(tmp_path, capsys):
    spec = tmp_path / "c.src.json"
    spec.write_text(json.dumps({
        "kind": "repro.campaign.src", "version": 1,
        "defaults": {"benchmark": "nonesuch"}}))
    code, _, err = run_cli(capsys, "compile", str(spec))
    assert code == 1
    assert "nonesuch" in err


def test_campaign_emit_events_then_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    events = tmp_path / "events.jsonl"
    code, _, err = run_cli(capsys, "campaign", "mcf", "--faults", "6",
                           "--jobs", "2", "--emit-events", str(events))
    assert code == 0
    assert events.exists()
    assert (tmp_path / "events.jsonl.manifest.json").exists()
    # the recorded log validates cleanly, manifest digest included
    code, out, err = run_cli(capsys, "report", "--events", str(events))
    assert code == 0
    summary = json.loads(out)
    assert summary["schema_errors"] == 0
    assert summary["by_type"]["fault_audit"] > 0


def test_report_rejects_invalid_event_log(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ts": 1.0, "type": "mystery", "pid": 1}\n')
    code, out, err = run_cli(capsys, "report", "--events", str(bad))
    assert code == 1
    assert "unknown event type" in err


def test_report_rejects_missing_manifest(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    log.write_text('{"ts": 1.0, "type": "run_start", "pid": 1, '
                   '"run": "r", "schema": 1}\n')
    code, _, err = run_cli(capsys, "report", "--events", str(log),
                           "--manifest", str(tmp_path / "nope.json"))
    assert code == 1
    assert "unreadable" in err


def test_bench_profile_prints_stage_accounting(capsys):
    code, out, err = run_cli(capsys, "bench", "gamess",
                             "--scheme", "baseline",
                             "--instructions", "1500", "--profile")
    assert code == 0
    assert "stage wall-clock" in out
    assert "cProfile top" in err


# ----------------------------------------------------------------------
# supervised campaign plumbing: cache verify, resume, report --run-dir
# ----------------------------------------------------------------------
def test_cache_verify_reports_and_quarantines(tmp_path, capsys):
    from repro.harness.cache import ArtifactCache
    cache = ArtifactCache(tmp_path)
    key = cache.key("srt", benchmark="mcf")
    cache.put("srt", key, [1, 2, 3])
    (tmp_path / "srt" / f"{key}.pkl").write_bytes(b"garbage")
    code, out, err = run_cli(capsys, "cache", "verify",
                             "--cache-dir", str(tmp_path))
    assert code == 0            # informative by default
    summary = json.loads(out)
    assert summary["corrupt"] == 1 and summary["quarantined"] == 1
    assert "corrupt: srt/" in err
    # --strict turns surviving corruption into a non-zero exit
    (tmp_path / "srt" / f"{key}.pkl").write_bytes(b"garbage again")
    code, out, _ = run_cli(capsys, "cache", "verify", "--strict",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    # once clean, --strict passes
    code, out, _ = run_cli(capsys, "cache", "verify", "--strict",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["corrupt"] == 0


def test_cache_stats_and_clear(tmp_path, capsys):
    from repro.harness.cache import ArtifactCache
    cache = ArtifactCache(tmp_path)
    cache.put("srt", cache.key("srt", benchmark="mcf"), [1])
    code, out, _ = run_cli(capsys, "cache", "stats",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "entries  1" in out
    code, out, _ = run_cli(capsys, "cache", "clear",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and "removed 1 entry" in out


def test_resume_requires_campaign_manifest(tmp_path, capsys):
    code, _, err = run_cli(capsys, "resume", str(tmp_path))
    assert code == 1
    assert "campaign.json" in err


def test_status_requires_journal(tmp_path, capsys):
    code, _, err = run_cli(capsys, "status", str(tmp_path))
    assert code == 1
    assert "journal.jsonl" in err


def _status(capsys, run_dir):
    code, out, _ = run_cli(capsys, "status", str(run_dir))
    assert code == 0
    return json.loads(out)


def _assert_phases_settled(summary):
    assert summary["phases"]
    for phase in summary["phases"]:
        assert (phase["windows_done"] + phase["quarantined"]
                == phase["windows_total"]), phase
        assert phase["status"] == "complete", phase


def test_supervised_campaign_cli_roundtrip(tmp_path, capsys, monkeypatch):
    """campaign --run-dir → status → resume is a no-op."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "campaign", "mcf", "--faults", "6",
                             "--jobs", "2", "--run-dir", str(run_dir))
    assert code == 0
    assert (run_dir / "journal.jsonl").exists()
    assert (run_dir / "campaign.json").exists()
    first = out
    summary = _status(capsys, run_dir)
    assert summary["state"] == "complete"
    assert summary["quarantined"] == 0
    assert summary["quarantined_windows"] == []
    assert summary["by_type"].get("phase_done", 0) >= 1
    _assert_phases_settled(summary)
    characterize = summary["phases"][0]
    assert (characterize["phase"], characterize["benchmark"],
            characterize["scheme"]) == ("characterize", "mcf", "baseline")
    assert characterize["windows_total"] == 6
    # resuming a completed run recomputes nothing and prints the same
    code, out, _ = run_cli(capsys, "resume", str(run_dir))
    assert code == 0
    assert out == first
    assert _status(capsys, run_dir)["phases"] == summary["phases"]


def test_status_counts_resumed_windows_once(tmp_path, capsys,
                                            monkeypatch):
    """A journal cut after its first chunk_done resumes; every window
    the two invocations journaled counts once."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run_dir = tmp_path / "run"
    code, first, _ = run_cli(capsys, "campaign", "mcf", "--faults", "6",
                             "--jobs", "1", "--chunk-windows", "2",
                             "--no-cache", "--run-dir", str(run_dir))
    assert code == 0
    finished = _status(capsys, run_dir)
    journal = run_dir / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    cut = next(i for i, line in enumerate(lines)
               if json.loads(line)["type"] == "chunk_done")
    journal.write_text("".join(lines[:cut + 1]))
    assert _status(capsys, run_dir)["state"] == "incomplete"
    code, out, _ = run_cli(capsys, "resume", str(run_dir))
    assert code == 0
    assert out == first
    summary = _status(capsys, run_dir)
    assert summary["state"] == "complete"
    assert summary["by_type"]["resume"] == 1
    _assert_phases_settled(summary)
    counts = [(p["phase"], p["windows_total"], p["windows_done"])
              for p in summary["phases"]]
    assert counts == [(p["phase"], p["windows_total"], p["windows_done"])
                      for p in finished["phases"]]


def test_status_incomplete_between_phases(tmp_path, capsys, monkeypatch):
    """A campaign journal cut right after characterize's phase_done (a
    run killed before its coverage phase planned) is incomplete, with
    coverage pending; a resume settles it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run_dir = tmp_path / "run"
    code, first, _ = run_cli(capsys, "campaign", "mcf", "--faults", "6",
                             "--jobs", "1", "--no-cache",
                             "--run-dir", str(run_dir))
    assert code == 0
    journal = run_dir / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    assert json.loads(lines[0]) == {
        "type": "campaign", "phases": [["characterize", "mcf", "baseline"],
                                       ["coverage", "mcf", "faulthound"]]}
    cut = next(i for i, line in enumerate(lines)
               if json.loads(line)["type"] == "phase_done")
    journal.write_text("".join(lines[:cut + 1]))
    summary = _status(capsys, run_dir)
    assert summary["state"] == "incomplete"
    assert [(p["phase"], p["scheme"], p["status"])
            for p in summary["phases"]] == [
        ("characterize", "baseline", "complete"),
        ("coverage", "faulthound", "pending")]
    code, out, _ = run_cli(capsys, "resume", str(run_dir))
    assert code == 0
    assert out == first
    summary = _status(capsys, run_dir)
    assert summary["state"] == "complete"
    _assert_phases_settled(summary)


def test_status_complete_when_cache_serves_phases(tmp_path, capsys,
                                                  monkeypatch):
    """A campaign whose phases the artifact cache serves journals them,
    so its run dir folds to complete with every window done."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    outputs = []
    for run in ("cold", "warm"):
        code, out, _ = run_cli(capsys, "campaign", "mcf", "--faults", "6",
                               "--jobs", "1",
                               "--run-dir", str(tmp_path / run))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    summary = _status(capsys, tmp_path / "warm")
    assert summary["state"] == "complete"
    _assert_phases_settled(summary)
    assert [(p["phase"], p["scheme"]) for p in summary["phases"]] == [
        ("characterize", "baseline"), ("coverage", "faulthound")]
    assert summary["phases"][0]["windows_total"] == 6
    assert summary["by_type"].get("chunk_done", 0) == 0


def test_status_notes_torn_journal_tail(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    journal.write_text(
        json.dumps({"type": "plan", "phase": "characterize",
                    "benchmark": "mcf", "scheme": "baseline",
                    "windows": 4}) + "\n"
        + json.dumps({"type": "chunk_done", "phase": "characterize",
                      "key": "k", "lo": 0, "hi": 2, "windows": 2,
                      "attempt": 1}) + "\n"
        + '{"type": "chunk_done", "phase": "charac')
    summary = _status(capsys, tmp_path)
    assert summary["by_type"]["truncated_tail"] == 1
    assert summary["state"] == "incomplete"
    assert [(p["windows_done"], p["windows_total"], p["status"])
            for p in summary["phases"]] == [(2, 4, "incomplete")]


def test_status_rejects_corrupt_journal(tmp_path, capsys):
    (tmp_path / "journal.jsonl").write_text(
        'not json\n{"type": "plan"}\n')
    code, _, err = run_cli(capsys, "status", str(tmp_path))
    assert code == 1
    assert "journal.jsonl:1" in err


def test_resume_ignores_retired_field_in_saved_run_dir(tmp_path, capsys,
                                                      monkeypatch):
    """Run dirs saved by older versions carry a lane-batch width in
    campaign.json; resume ignores it and reproduces the equivalent
    campaign's stdout."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code, expected, _ = run_cli(capsys, "campaign", "mcf", "--faults", "4",
                                "--seed", "3", "--jobs", "1", "--no-cache",
                                "--run-dir", str(tmp_path / "fresh"))
    assert code == 0
    old = tmp_path / "old"
    old.mkdir()
    (old / "campaign.json").write_text(json.dumps({
        "batch_lanes": 8, "chunk_timeout": None, "chunk_windows": 8,
        "command": "campaign", "faults": 4, "jobs": 1, "max_retries": 3,
        "name": "mcf", "no_cache": True, "scheme": "faulthound",
        "seed": 3}, indent=2, sort_keys=True))
    code, out, _ = run_cli(capsys, "resume", str(old))
    assert code == 0
    assert out == expected


def test_run_dir_defaults_event_log_into_it(tmp_path, capsys,
                                            monkeypatch):
    """A journaled campaign gets events.jsonl in the run dir by default
    (announced on stderr, stdout untouched) as its audit trail."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "campaign", "mcf", "--faults", "4",
                           "--jobs", "1", "--run-dir", str(run_dir))
    assert code == 0
    assert (run_dir / "events.jsonl").exists()
    assert f"events: {run_dir / 'events.jsonl'}" in err
    # report gained the audit aggregates alongside the summary
    code, out, _ = run_cli(capsys, "report", "--events",
                           str(run_dir / "events.jsonl"))
    assert code == 0
    summary = json.loads(out)
    assert summary["aggregates"]["records"] == 4
    assert summary["aggregates"]["applied"] > 0
    # and the session metrics snapshot rode the log
    assert summary["by_type"]["metrics"] >= 1


def test_status_rejects_missing_run_dir(tmp_path, capsys):
    code, _, err = run_cli(capsys, "status", str(tmp_path / "nope"))
    assert code == 1
    assert "not a run directory" in err


def test_metrics_export_from_plain_log(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    log.write_text(json.dumps(
        {"ts": 1.0, "type": "metrics", "pid": 1,
         "snapshot": {"counters": {"n_total": 3}}}) + "\n")
    code, out, _ = run_cli(capsys, "metrics", "export", str(log))
    assert code == 0
    assert "repro_n_total 3" in out


def test_metrics_export_empty_log_notes_it(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    log.write_text(json.dumps(
        {"ts": 1.0, "type": "worker_start", "pid": 1}) + "\n")
    code, out, err = run_cli(capsys, "metrics", "export", str(log))
    assert code == 0
    assert out == ""
    assert "no metrics" in err
