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


def test_campaign_rejects_batch_lanes_below_one(capsys):
    """Regression: K < 1 used to be silently clamped to the scalar
    path; now the parser rejects it outright."""
    for bad in ("0", "-2"):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["campaign", "mcf",
                                       "--batch-lanes", bad])
        assert excinfo.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


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


def test_report_run_dir_requires_journal(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", "--run-dir", str(tmp_path))
    assert code == 1
    assert "journal.jsonl" in err


def test_supervised_campaign_cli_roundtrip(tmp_path, capsys, monkeypatch):
    """campaign --run-dir → report --run-dir → resume is a no-op."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "campaign", "mcf", "--faults", "6",
                             "--jobs", "2", "--run-dir", str(run_dir))
    assert code == 0
    assert (run_dir / "journal.jsonl").exists()
    assert (run_dir / "campaign.json").exists()
    first = out
    code, out, _ = run_cli(capsys, "report", "--run-dir", str(run_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["poisoned"] == 0
    assert summary["by_type"].get("phase_done", 0) >= 1
    # resuming a completed run recomputes nothing and prints the same
    code, out, _ = run_cli(capsys, "resume", str(run_dir))
    assert code == 0
    assert out == first


def test_run_dir_defaults_event_log_into_it(tmp_path, capsys,
                                            monkeypatch):
    """A journaled campaign gets events.jsonl in the run dir by default
    (announced on stderr, stdout untouched) so the monitor surfaces
    have something to tail."""
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


def test_status_and_top_reject_missing_run_dir(tmp_path, capsys):
    code, _, err = run_cli(capsys, "status", str(tmp_path / "nope"))
    assert code == 1
    assert "not a run directory" in err
    code, _, err = run_cli(capsys, "top", str(tmp_path / "nope"), "--once")
    assert code == 1


def test_tail_rejects_missing_log(tmp_path, capsys):
    code, _, err = run_cli(capsys, "tail", str(tmp_path / "none.jsonl"))
    assert code == 1
    assert "not found" in err


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
