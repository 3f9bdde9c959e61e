"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each unit of work runs in a fresh
interpreter (``perfbench/unit.py``), so in-process memos start cold.

``--trace 0`` repeats units of the workload, one after the other, for
``--seconds`` seconds (at least two units) and reports the end-to-end
metrics over them, its times scaled to a reference host speed (see
:func:`host_scale`). ``--trace 1`` runs three units — untraced at the workload's
own ``jobs``, untraced in-process at ``jobs=1``, and traced in-process —
and reports the per-layer metrics. Either way the last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every unit passes the correctness gate and every unit of one seed has the
same output digest, or ``correct`` is false.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
#: Work files of the running benchmark, inside the checkout.
SCRATCH = os.path.join(os.getcwd(), ".perfbench")
UNIT_TIMEOUT_S = 170
#: Units a timed run takes at least, so every request has a repetition.
MIN_UNITS = 2
#: Set-up samples a timed run takes at least (extra set-up-only units).
SETUP_SAMPLES = 5
#: ``calibrate.py``'s fastest slice, in seconds, on the host the benchmark
#: was sized on when it ran at full speed.
REFERENCE_SLICE_S = 1.25e-3


def spawn(workload: str, seed: int, mode: str, tiny: bool = False,
          spans: str = None) -> dict:
    """One unit in a fresh interpreter; its JSON result line."""
    os.makedirs(SCRATCH, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]),
               PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(HERE, "unit.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--scratch", SCRATCH]
    if tiny:
        command.append("--tiny")
    if spans:
        command += ["--spans", spans]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env=env, timeout=UNIT_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} unit exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def calibrate(copies: int) -> float:
    """Seconds of the fastest slice of ``calibrate.py``'s fixed work on
    *copies* cores, read in an isolated interpreter between two units."""
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "calibrate.py"), "0.2",
         str(copies)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return float(proc.stdout)


def host_scale(slices) -> float:
    """The factor that takes the run's times to the reference host speed.

    A shared host slows down in two ways: in bursts of a few seconds,
    which the fastest repetition of each request avoids, and for minutes
    on end, which it cannot avoid. The fastest calibration slice of the
    run moves with the second kind only, so scaling by it leaves a figure
    that moves with the program, not with the host."""
    return REFERENCE_SLICE_S / min(slices)


def fastest(units, column: int) -> dict:
    """Each request's fastest repetition over *units*, in seconds.

    Other tenants of a shared host slow it down in bursts of seconds;
    every repetition of a request that ran outside a burst reads the
    same, so the per-request minimum is the steady figure."""
    best = {}
    for unit in units:
        for request in unit["requests"]:
            label, seconds = request[0], request[column]
            best[label] = min(seconds, best.get(label, seconds))
    return best


def fastest_unit(units, column: int) -> float:
    """Seconds of one unit with each request at its fastest repetition."""
    return sum(fastest(units, column).values())


def timed_run(workload: str, seed: int, seconds: float,
              tiny: bool = False) -> dict:
    """Closed loop, one client: the next unit starts when the last ends,
    as long as a unit of average length still ends within *seconds* (at
    least :data:`MIN_UNITS` run)."""
    import suite
    units, setups, slices = [], [], []
    started = time.perf_counter()
    elapsed = 0.0
    while (len(units) < MIN_UNITS
           or elapsed + elapsed / len(units) <= seconds):
        slices.append(calibrate(suite.JOBS[workload]))
        units.append(spawn(workload, seed, "timed", tiny))
        setups.append(units[-1]["setup_s"])
        elapsed = time.perf_counter() - started
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", tiny)["setup_s"])
    raw = {"wall_s": fastest_unit(units, 1), "setup_s": median(setups),
           "cpu_s": fastest_unit(units, 2)}
    scale = host_scale(slices)
    metrics = {name: (value * scale, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (median(u["peak_rss_mb"] for u in units), "MB")
    # context_metrics_windows: ContextMetrics' own window count, printed
    # beside the count taken from the returned results
    print("units: " + json.dumps([{k: u[k] for k in (
        "wall_s", "setup_s", "cpu_s", "peak_rss_mb", "windows",
        "context_metrics_windows", "digest")} for u in units]))
    print("fastest: " + json.dumps(fastest(units, 1)))
    print(f"host: fastest slice {min(slices)} s, scale {scale}; unscaled "
          + json.dumps(raw))
    return finish(units, metrics)


def trace_run(workload: str, seed: int, tiny: bool = False) -> dict:
    import layers
    os.makedirs(SCRATCH, exist_ok=True)
    spans = os.path.join(SCRATCH, f"spans-{workload}-{seed}.json")
    timed = spawn(workload, seed, "timed", tiny)
    reference = spawn(workload, seed, "inprocess", tiny)
    traced = spawn(workload, seed, "traced", tiny, spans=spans)
    units = [timed, reference, traced]
    values = layers.combine(traced["layers"], traced["wall_s"], timed,
                            reference, sum(u["attempted"] for u in units),
                            sum(u["failed"] for u in units))
    units_of = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {name: (values[name], units_of[name]) for name in units_of}
    print(f"spans: {os.path.relpath(spans)}")
    return finish(units, metrics)


def finish(units, metrics) -> dict:
    """Gate, digests and deterministic counts into the result object."""
    digests = {u["digest"] for u in units}
    for unit in units:
        for failure in unit["failures"]:
            print(f"FAILED: {failure}")
    stats = dict(units[-1]["stats"])
    if "layers" in units[-1]:
        for key in ("pipeline.cycles_elided", "checkpoint.bytes"):
            stats[key] = units[-1]["layers"][key]
    print("stats: " + json.dumps(stats, sort_keys=True))
    print(f"digest: {' '.join(sorted(digests))}")
    return {"correct": (len(digests) == 1
                        and not any(u["failed"] for u in units)),
            "attempted": sum(u["attempted"] for u in units),
            "failed": sum(u["failed"] for u in units),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny scale (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro sources under {SRC}: run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import suite
    if args.workload not in suite.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = suite.DEFAULT_SEED if args.seed is None else args.seed
    if args.trace:
        result = trace_run(args.workload, seed, args.tiny)
    else:
        result = timed_run(args.workload, seed, args.seconds, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
