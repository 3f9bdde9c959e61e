"""Run one unit of work of one workload in this fresh interpreter.

    python3 perfbench/unit.py --workload NAME --seed N --mode MODE [--tiny]

Run from the root of a checkout (``src/`` on ``PYTHONPATH``). Prints one
JSON object as its last stdout line. MODE is ``timed`` (the workload's
own path), ``inprocess`` (``jobs=1`` in this process), ``traced``
(``inprocess`` under the tracer; adds the raw layer facts) or ``setup``
(set-up only). Every file it writes goes under ``--scratch``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _reap_children(timeout: float = 30.0) -> None:
    """Wait for every worker process this unit forked, so their CPU time
    and peak memory are in RUSAGE_CHILDREN and none outlives the unit."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.02)


class RequestClock:
    """Wall and CPU seconds of each request a unit submits; the CPU
    seconds include the workers the request forked (reaped first)."""

    def __init__(self):
        self.requests = []

    @contextlib.contextmanager
    def __call__(self, label: str):
        cpu_before = _cpu_seconds()
        started = time.perf_counter()
        yield
        wall = time.perf_counter() - started
        _reap_children()
        self.requests.append((label, wall, _cpu_seconds() - cpu_before))


def _journal(run_dir) -> dict:
    path = os.path.join(run_dir, "journal.jsonl")
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as handle:
        blob = handle.read()
    return {"journal_records": blob.count(b"\n"), "journal_bytes": len(blob)}


def _harness_facts(state) -> dict:
    """Supervisor counters and journal size of a timed unit."""
    facts = {}
    if state.supervisor is not None:
        reports = state.supervisor.reports
        facts = {"retries": sum(r.retries for r in reports),
                 "timeouts": sum(r.timeouts for r in reports),
                 "pool_rebuilds": sum(r.pool_rebuilds for r in reports),
                 "quarantined": sum(len(r.quarantined) for r in reports)}
        facts.update(_journal(state.supervisor.run_dir))
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "inprocess", "traced", "setup"))
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)

    import suite
    tracer = None
    context_class = suite.ExperimentContext
    if args.mode == "traced":
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
        context_class = layers.TracedContext
    path_mode = "timed" if args.mode in ("timed", "setup") else "inprocess"
    state = suite.setup(args.workload, args.seed, path_mode, args.scratch,
                        tiny=args.tiny, context_class=context_class,
                        tracer=tracer)
    result = {"jobs": state.jobs, "setup_s": time.perf_counter() - _STARTED}
    try:
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        before_self = dict(tracer.self_s) if tracer is not None else {}
        clock = RequestClock()
        cpu_before = _cpu_seconds()
        started = time.perf_counter()
        out = suite.execute(state, path_mode, tracer, clock)
        wall = time.perf_counter() - started
        _reap_children()
        cpu = _cpu_seconds() - cpu_before
        summary = suite.summarize(state, out)
        attempted, failures = suite.check(summary)
        stats = suite.sim_stats(summary)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update({
            "wall_s": wall, "cpu_s": cpu, "requests": clock.requests,
            "peak_rss_mb": (self_rss + child_rss) / 1024.0,
            "attempted": attempted, "failed": len(failures),
            "failures": failures[:20], "digest": suite.digest(summary),
            "stats": stats, "committed": stats["sim.committed"],
            "windows": stats["faults.windows"],
            "harness": _harness_facts(state),
            "context_metrics_windows": state.ctx.metrics.windows})
        if tracer is not None:
            tracer.restore()
            unit_self = {name: seconds - before_self.get(name, 0.0)
                         for name, seconds in tracer.self_s.items()}
            if args.spans:
                tracer.write(args.spans)
            result["layers"] = layers.collect(tracer, state, summary, wall,
                                              unit_self, out)
        print(json.dumps(result))
        return 0
    finally:
        state.close()


if __name__ == "__main__":
    sys.exit(main())
