"""How fast the host runs Python right now, read in an interpreter of its
own.

    python3 -I perfbench/calibrate.py [SECONDS [COPIES]]

Runs a fixed slice of pure-Python work over and over for SECONDS
(default 0.2) in each of COPIES processes at once (default 1) and prints
the fastest slice's seconds, of the copy whose fastest slice was slowest.
A slice takes about a millisecond, so the fastest one ran clear of other
tenants' bursts: it moves only when the host's own speed does. A workload
that keeps several cores busy waits for the slowest of them, so it is
read on as many cores. ``-I`` keeps ``PYTHONPATH`` and the user's site
out, so no change to the program under test changes what this measures.
"""

import os
import sys
import time


def work() -> int:
    acc = 0
    for i in range(20_000):
        acc += (i * 7) % 13
    return acc


def fastest_slice(seconds: float) -> float:
    fastest = float("inf")
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        started = time.perf_counter()
        work()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seconds = float(argv[0]) if argv else 0.2
    copies = int(argv[1]) if len(argv) > 1 else 1
    pipes = []
    for _ in range(copies - 1):
        read, write = os.pipe()
        if os.fork() == 0:
            os.close(read)
            os.write(write, repr(fastest_slice(seconds)).encode())
            os._exit(0)
        os.close(write)
        pipes.append(read)
    slices = [fastest_slice(seconds)]
    for read in pipes:
        with os.fdopen(read) as handle:
            slices.append(float(handle.read()))
        os.wait()
    print(max(slices))
    return 0


if __name__ == "__main__":
    sys.exit(main())
