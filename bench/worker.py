"""One fresh-process run of one workload: set up, run the CLI command, report.

Usage: python3 bench/worker.py --workload NAME --seed N --workdir DIR
           [--trace] [--cpu K] [--spawned T]

Set-up is what a CLI user pays on every run: interpreter start, ``import
evitrust`` (numpy and scipy) and, for ``amazon``, writing the synthesized
input file.  It is timed from ``--spawned``, the parent's ``time.monotonic()``
just before it started this process.  The worker then calls
``evitrust.cli.cli_main`` in-process and writes ``DIR/result.json``; the
command's own output goes to ``DIR/output.csv``.  With ``--trace`` the layer
functions are traced and the spans written to ``DIR/spans.jsonl``.

Untraced, a speed probe (see SpeedProbe) samples the host's speed during
set-up and during the command, so that both times are also given at a fixed
reference speed.

``evitrust`` must come from ``src/`` of the checkout this file sits in; any
other copy is refused.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PROBE_PERIOD_S = 0.02
PROBE_LOOPS = 20000
# The probe loop's duration that defines the reference speed.  It took about
# 0.7 ms on a fast and 1.0 ms on a slow CPU of the 2-vCPU host the benchmark
# was built on.
REFERENCE_PROBE_S = 0.001


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_PERIOD_S, from a SIGALRM
    handler in the measured process itself.

    A shared host's speed drifts by up to 1.7x for seconds to minutes, on
    all CPUs at once.  The loop does not touch evitrust, so its median
    duration over an interval measures the host, not the program, and
    ``scaled`` converts the interval's time to the reference speed.  The
    probe's own time is subtracted first.
    """

    def __init__(self):
        self.samples = []  # (monotonic start, duration)

    def _tick(self, _signum, _frame):
        t0 = time.monotonic()
        x = 0
        for k in range(PROBE_LOOPS):
            x += k
        self.samples.append((t0, time.monotonic() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, lo: float, hi: float) -> float:
        """The probe's own time between ``lo`` and ``hi``."""
        return sum(d for t, d in self.samples if lo <= t < hi)

    def scaled(self, lo: float, hi: float) -> float:
        """The time from ``lo`` to ``hi``, less the probe's, at the reference speed."""
        inside = [d for t, d in self.samples if lo <= t < hi]
        speed = REFERENCE_PROBE_S / statistics.median(inside or [d for _, d in self.samples])
        return (hi - lo - sum(inside)) * speed


def _write_feedback(path: str, seed: int) -> None:
    from evitrust.amazon import synthesize_feedback
    from workloads import AMAZON_FEEDBACKS, AMAZON_SELLERS

    records = synthesize_feedback(AMAZON_SELLERS, AMAZON_FEEDBACKS, seed=seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("seller_id,t,rating\n")
        fh.writelines(f"{r.seller_id},{r.t},{r.rating}\n" for r in records)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cpu", type=int, default=None, help="pin the process to this CPU")
    ap.add_argument("--spawned", type=float, default=None,
                    help="time.monotonic() just before the parent started this process")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    probe = None if args.trace else SpeedProbe()
    if probe is not None:
        probe.start()

    sys.path.insert(0, SRC)
    import evitrust
    import evitrust.cli
    import numpy
    import scipy
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(evitrust.__file__)) != os.path.join(SRC, "evitrust"):
        print(f"error: evitrust imported from {evitrust.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    input_path = os.path.join(args.workdir, "input.csv")
    out_path = os.path.join(args.workdir, "output.csv")
    if workload.needs_input:
        _write_feedback(input_path, args.seed)
    argv = workload.argv(args.seed, input_path, out_path)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}:{args.seed}:{os.getpid()}")
        tracer.install()

    t_ready = time.monotonic()
    error = None
    try:
        exit_code = evitrust.cli.cli_main(argv)
    except Exception:  # a traceback is a failed run, reported below
        exit_code, error = None, traceback.format_exc()
    t_done = time.monotonic()
    if probe is not None:
        probe.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(args.workdir, "spans.jsonl"))

    spent = probe.spent if probe is not None else (lambda lo, hi: 0.0)
    result = {
        "exit_code": exit_code,
        "error": error,
        "wall_s": t_done - t_ready - spent(t_ready, t_done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.spawned is not None:
        result["setup_s"] = t_ready - args.spawned - spent(args.spawned, t_ready)
    if probe is not None:
        result["wall_ref_s"] = probe.scaled(t_ready, t_done)
        if args.spawned is not None:
            result["setup_ref_s"] = probe.scaled(args.spawned, t_ready)
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
