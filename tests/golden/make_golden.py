"""Generate the golden CLI outputs that ``test_golden.py`` checks.

Each case runs ``evitrust.cli.cli_main`` in-process.  The manifest records,
per case, its argv, exit code, the sha256 of its stdout and the first line of
its stderr; the cases in ``FULL`` also keep their whole stdout, so that a
failure names the first row that moved.  The numpy version is recorded too,
since the seeded draws are numpy's algorithms.

Run from the repository root to regenerate (only when an output is meant to
change):

    PYTHONPATH=src python tests/golden/make_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

import numpy

from evitrust.amazon import synthesize_feedback
from evitrust.cli import cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "manifest.json")
# An argv item that stands for a CSV file of ``synthesize_feedback()``.
SYNTH = "{synth}"
# Stands for the case's own temporary directory, in argv items and in stderr.
TMP = "{tmp}"

_M = ("LinearWS", "Josang", "MaxCertainty", "Sensitivity", "AverageBeta")
_SWEEP = "sweep --profiles probability:0.9,periodic,walk:0.2 --beta-grid 0:1:0.25 --timesteps 40"
CASES = [
    # referrer: every method, every referrer profile and some behavior profiles
    *(f"simulate --experiment referrer --timesteps 60 --method {m} --profile {p}"
      for m, p in zip(_M, ("rumor:20,10", "corrupted:30", "truthful", "periodic", "walk:0.2"))),
    "simulate --experiment referrer --timesteps 60 --profile honest --beta 0.5",
    "simulate --experiment referrer --timesteps 60 --profile momentum:0.1,0.5 --format json",
    "simulate --experiment referrer --timesteps 60 --method Sensitivity --profile rumor:10,3",
    # combine: every method
    *(f"simulate --experiment combine --timesteps 60 --switch 30 --method {m}" for m in _M),
    "simulate --experiment combine --timesteps 100 --beta 0.05 --seed 7",
    "simulate --experiment combine --timesteps 40 --switch 0 --format json",
    # history: every mode, every behavior profile
    *(f"simulate --experiment history --timesteps 60 --mode {m} --profile {p}"
      for m in ("Amazon", "TrustInHistory")
      for p in ("probability:0.9", "periodic", "damping:40", "random", "walk:0.2",
                "momentum:0.1,0.5")),
    "simulate --experiment history --timesteps 60 --mode FixedBeta --beta 0.3 --profile periodic",
    "simulate --experiment history --timesteps 60 --mode FixedBeta --profile random --format json",
    "simulate --experiment history --timesteps 60 --mode AverageAlpha --profile walk:0.3",
    # --tx from numpy's inversion branch to its BTPE branch, X_t inside (0, 1)
    *(f"simulate --experiment history --timesteps 50 --profile random --tx {n}"
      for n in (7, 50, 1000, 100000)),
    # sweeps, CSV and JSON
    f"{_SWEEP} --seeds 3",
    f"{_SWEEP} --seeds 3 --format json",
    f"{_SWEEP} --seeds 2 --mode TrustInHistory",
    f"{_SWEEP} --seeds 2 --mode Amazon --seed 11",
    # profiles whose every seed draws the same stream
    "sweep --profiles periodic,damping:40 --beta-grid 0:1:0.25 --seeds 4 --mode TrustInHistory",
    "sweep --profiles damping:30,probability:1.0 --beta-grid 0:1:0.1 --seeds 3 --format json",
    "sweep --experiment referrer --profiles truthful,rumor:10,5 --beta-grid 0:1:0.5 "
    "--timesteps 30 --seeds 2",
    "sweep --experiment referrer --profiles corrupted:10 --beta-grid 0.1:0.3:0.1 "
    "--timesteps 30 --seeds 2 --method Josang --format json",
    # amazon
    "amazon",
    "amazon --format json --lambda-grid 0.5:1:0.25",
    f"amazon --input {SYNTH}",
    # update, accuracy, certainty
    *(f"update --method {m} --observed 7,3 --report 4,6 --prior 2,1 --beta 0.1" for m in _M),
    *(f"accuracy --method {m} --observed 7,3 --report 4,6"
      for m in ("linear", "max-certainty", "sensitivity", "average")),
    # a near-one-sided peak, far from the point and at it
    "accuracy --method max-certainty --observed 1e6,1e-11 --report 1,1",
    "accuracy --method sensitivity --observed 1,1 --report 1e6,1e-11",
    "accuracy --method max-certainty --observed 1e6,1e-11 --report 1e6,1e-11",
    *(f"update --method {m} --observed 1e6,1e-11 --report 1e6,1e-11"
      for m in ("MaxCertainty", "Sensitivity")),
    "certainty 3 4",
    "certainty 0 100",
    "certainty 5e5 5e5",
    # exit codes 1, 2 and 3
    "update --method Bogus --observed 1,1 --report 1,1",
    "certainty -1 2",
    "certainty 1e200 1e200",
    # help, for the whole CLI and for each command
    "--help",
    *(f"{c} --help" for c in ("certainty", "accuracy", "update", "simulate", "sweep", "amazon")),
    # the bounds of counts and seeds, and names that parse or not
    *(f"simulate --experiment history {flag}"
      for flag in ("--tx 0", "--timesteps 1000001", "--seed -1", "--seed x", "--mode bogus",
                   "--mode averagealpha --timesteps 5")),
    "sweep --profiles periodic --beta-grid 0:1:0.5 --seed 18446744073709551615",
    "update --method AverageAlpha --observed 1,1 --report 1,1",
    # a peak ratio over evidence with no total
    "accuracy --method max-certainty --observed 0,0 --report 1,1",
    "accuracy --method sensitivity --observed 1,1 --report 0,0",
    # evidence whose total overflows, far past the evidence bound
    "accuracy --method linear --observed 1.7e308,1.7e308 --report 1,1",
    "accuracy --method average --observed 1,1 --report 1.7e308,1.7e308",
    # files that cannot be opened
    "amazon --input {tmp}/missing.csv",
    "amazon --out {tmp}/missing/table.csv",
    # the shortest behavior streams, with and without walk and momentum's hidden X_0
    *(f"simulate --experiment history --timesteps {n} --profile {p}"
      for p in ("random", "walk:0.2", "momentum:0.1,0.5") for n in (1, 2)),
    "sweep --profiles random,walk:0.2,momentum:0.1,0.5,probability:0.3 --beta-grid 0:1:0.5 "
    "--seeds 3",
    # the evidence bound, 1e9: counts past it and at it, a run's --tx × --timesteps past it
    # and at it, and a rumor that exaggerates its reports past it
    "certainty 1e9 1",
    "certainty 5e8 5e8",
    "simulate --experiment history --tx 1000000 --timesteps 1001",
    "simulate --experiment combine --timesteps 10 --switch 5 --tx 100000000",
    "simulate --experiment referrer --profile rumor:1,1e300 --timesteps 3",
]
FULL = [
    "simulate --experiment referrer --timesteps 60 --method LinearWS --profile rumor:20,10",
    "simulate --experiment combine --timesteps 60 --switch 30 --method AverageBeta",
    "simulate --experiment history --timesteps 60 --mode TrustInHistory --profile random",
    f"{_SWEEP} --seeds 3",
    "amazon",
    f"amazon --input {SYNTH}",
]


def _synth_csv() -> str:
    rows = ["seller_id,t,rating"]
    rows += [f"{r.seller_id},{r.t},{r.rating}" for r in synthesize_feedback()]
    return "\n".join(rows) + "\n"


def run_case(case: str):
    """(exit code, stdout, first line of stderr) of one case.  A ``SystemExit``
    (as ``--help`` raises) gives its code; help is wrapped at 80 columns."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = case.split()
        if SYNTH in argv:
            path = os.path.join(tmp, "synth.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_synth_csv())
            argv = [path if a == SYNTH else a for a in argv]
        argv = [a.replace(TMP, tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue().partition("\n")[0].replace(tmp, TMP)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    assert set(FULL) <= set(CASES) and len(set(CASES)) == len(CASES)
    entries = []
    for index, case in enumerate(CASES):
        code, out, err = run_case(case)
        entry = {"argv": case, "exit": code, "stdout_sha256": sha256(out), "stderr": err}
        if case in FULL:
            entry["stdout_file"] = f"case_{index:02d}.out"
            with open(os.path.join(HERE, entry["stdout_file"]), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(out)
        entries.append(entry)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump({"numpy": numpy.__version__, "cases": entries}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} cases to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    main()
