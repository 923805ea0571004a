"""The evitrust benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {combine,sweep,amazon,all} --seed N \
        --seconds S --trace {0,1}

A round starts one fresh worker process (bench/worker.py) per CPU, up to
COPIES, each pinned to its own CPU; every worker sets up, runs the
workload's CLI command once in-process through ``evitrust.cli.cli_main`` and
exits.  On a shared host each CPU slows down by up to 1.7x for seconds to
minutes at a time, so a single process can spend a whole run on a slow CPU;
two copies on two CPUs rarely both do.  Rounds run one after another until
``--seconds`` is used up (at least MIN_ROUNDS, at most MAX_MEASURE_S).

Times are reported at a reference host speed that each worker measures
while it runs (worker.SpeedProbe).  wall_s is the best of all copies (see
BEST_OF), setup_s the median over rounds of each round's fastest set-up,
peak_rss_mb the median over copies.  Every copy's output is checked
(bench/check.py).

--trace 0 reports the end-to-end metrics, measured untraced.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the fastest traced copy of each round (bench/tracer.py), plus the
tracer's own cost as traced minus untraced wall time.

A table goes to stdout first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The benchmark exits
non-zero without a result when the checkout has no ``src/evitrust``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
REFERENCE_DIR = os.path.join(BENCH, "reference")

sys.path.insert(0, BENCH)

from check import check_output  # noqa: E402
from tracer import PER_LAYER, load, summarize  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Workload  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "fraction"),
)
# wall_s is the best time of all copies in the run, not a median: a copy
# that ran through a slow spell of its CPU is not representative of the
# program, and the median still depends on the share of the run spent slow.
BEST_OF = frozenset({"wall_s", "measured_wall_s"})
COPIES = 2
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
# A run must end within 180 s: MIN_ROUNDS gives way to MAX_MEASURE_S.
MAX_MEASURE_S = 120
REP_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot measure (as opposed to the program failing a check)."""


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))[:COPIES]


def host_info() -> Dict[str, object]:
    model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "copies": len(_cpus())}


def warm_up() -> None:
    """Import the package once, untimed, so that bytecode compilation (paid
    once per checkout, not per run) stays out of the set-up time."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import evitrust.cli"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import evitrust:\n{proc.stderr}")


def _collect(workload: Workload, seed: int, trace: bool, workdir: str, returncode: int) -> dict:
    raw = _read(os.path.join(workdir, "result.json"))
    if raw is None:
        raise BenchError(f"{workload.name} worker exited {returncode} without a result:\n"
                         f"{_read(os.path.join(workdir, 'stderr.txt'))}")
    rep = json.loads(raw)
    reference = (_read(os.path.join(REFERENCE_DIR, f"{workload.name}.csv"))
                 if seed == REFERENCE_SEED else None)
    rep["check"] = check_output(
        workload,
        rep["exit_code"],
        _read(os.path.join(workdir, "output.csv")),
        input_text=_read(os.path.join(workdir, "input.csv")),
        reference_text=reference,
    )
    if rep["error"]:
        print(rep["error"], file=sys.stderr)
    if trace:
        counters, spans = load(os.path.join(workdir, "spans.jsonl"))
        rep["layers"] = summarize(counters, spans)
    return rep


def run_round(workload: Workload, seed: int, trace: bool, workdir: str) -> List[dict]:
    """One worker per CPU at once; each copy's timings, check and layers."""
    started = []
    try:
        for cpu in _cpus():
            copydir = os.path.join(workdir, f"cpu{cpu}")
            shutil.rmtree(copydir, ignore_errors=True)
            os.makedirs(copydir)
            with open(os.path.join(copydir, "stderr.txt"), "w") as err:
                cmd = [sys.executable, WORKER, "--workload", workload.name, "--seed", str(seed),
                       "--workdir", copydir, "--cpu", str(cpu), "--spawned", repr(time.monotonic())]
                proc = subprocess.Popen(cmd + (["--trace"] if trace else []), cwd=ROOT,
                                        stdout=subprocess.DEVNULL, stderr=err)
            started.append((proc, copydir))
        for proc, _ in started:
            try:
                proc.wait(timeout=REP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload.name} worker exceeded {REP_TIMEOUT_S} s")
    finally:
        for proc, _ in started:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return [_collect(workload, seed, trace, d, p.returncode) for p, d in started]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, workdir: str):
    """Rounds until ``seconds`` are used: (untraced rounds, traced rounds)."""
    plain: List[List[dict]] = []
    traced: List[List[dict]] = []
    start = time.monotonic()
    durations: List[float] = []
    while True:
        t0 = time.monotonic()
        plain.append(run_round(workload, seed, False, workdir))
        if trace:
            traced.append(run_round(workload, seed, True, workdir))
        durations.append(time.monotonic() - t0)
        next_end = time.monotonic() + statistics.median(durations) - start
        enough = len(traced) >= MIN_TRACED_ROUNDS if trace else len(plain) >= MIN_ROUNDS
        if next_end > MAX_MEASURE_S or (enough and next_end > seconds):
            return plain, traced


def _fastest(round_: List[dict]) -> dict:
    return min(round_, key=lambda rep: rep["wall_s"])


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  [q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, workdir: str):
    """Measure one workload: (rows attempted, rows failed, metrics, per-round
    series, host)."""
    plain, traced = measure(workload, seed, seconds, trace, workdir)
    reps = [rep for round_ in plain + traced for rep in round_]
    attempted = sum(rep["check"].attempted for rep in reps)
    failed = sum(rep["check"].failed for rep in reps)
    for rep in reps:
        for problem in rep["check"].problems[:5]:
            print(f"{workload.name}: {problem}", file=sys.stderr)

    series: Dict[str, List[float]] = {}
    if trace:
        fastest = [_fastest(r) for r in traced]
        for name, _unit in PER_LAYER:
            if name != "trace.overhead_s":
                series[name] = [rep["layers"][name] for rep in fastest]
        series["trace.overhead_s"] = [t["wall_s"] - _fastest(p)["wall_s"]
                                      for p, t in zip(plain, fastest)]
        units = dict(PER_LAYER)
    else:
        series["wall_s"] = [rep["wall_ref_s"] for r in plain for rep in r]
        series["setup_s"] = [min(rep["setup_ref_s"] for rep in r) for r in plain]
        series["peak_rss_mb"] = [rep["peak_rss_mb"] for r in plain for rep in r]
        series["ok_rate"] = [1.0 - failed / attempted]
        units = dict(END_TO_END)
        # As measured, before scaling to the reference speed; for the table only.
        series["measured_wall_s"] = [rep["wall_s"] for r in plain for rep in r]
        series["measured_setup_s"] = [min(rep["setup_s"] for rep in r) for r in plain]
    stats = {name: (min if name in BEST_OF else statistics.median)(vals)
             for name, vals in series.items()}
    metrics = {name: {"value": stats[name], "unit": unit} for name, unit in units.items()}
    return attempted, failed, metrics, stats, series, dict(reps[0]["host"])


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time per workload (default 10)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "evitrust", "__init__.py")):
        print(f"error: no src/evitrust under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(BENCH, ".work", str(os.getpid()))
    total_attempted = total_failed = 0
    all_metrics: Dict[str, dict] = {}
    try:
        warm_up()
        for name in names:
            attempted, failed, metrics, stats, series, host = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workdir)
            total_attempted += attempted
            total_failed += failed
            host.update(host_info())
            print(f"# {name} seed={args.seed} trace={args.trace} host={json.dumps(host)}")
            print(f"#   rows checked {attempted}, failed {failed}")
            for metric, value in stats.items():
                unit = metrics[metric]["unit"] if metric in metrics else "s"
                print(f"#   {metric:<48} {value:<14.6g} {unit}{_quartiles(series[metric])}")
            prefix = f"{name}." if len(names) > 1 else ""
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": all_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
