"""Correctness of one workload's output, row by row.

A row fails when it is missing, malformed, breaks an invariant, or (at the
reference seed) differs from the committed reference output by more than
the tolerance.  Numbers are compared within |a − b| <= ABS_TOL + REL_TOL·|b|
rather than byte for byte, so that a change of summation order or of the
root-finder's stopping point does not count as a failure.  A run that exits
non-zero or raises fails every row.

The checks never import evitrust: the ``amazon`` Unweighted and
GeometricWeights errors are recomputed here from the input file with O(1)
recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from workloads import (
    AMAZON_LAMBDAS,
    COMBINE_SWITCH,
    COMBINE_TX,
    SWEEP_BETAS,
    SWEEP_PROFILES,
    Workload,
)

REL_TOL = 1e-6
ABS_TOL = 1e-9


@dataclass
class CheckResult:
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def _num(cell: str) -> float:
    v = float(cell)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {cell!r}")
    return v


def _unit(cell: str) -> float:
    v = _num(cell)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{cell} is outside [0, 1]")
    return v


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _alpha(r: float, s: float) -> float:
    return 0.5 if r + s == 0 else r / (r + s)


def _combine_rows(rows: List[List[str]], _input: Optional[str]) -> List[Optional[str]]:
    """Per-step series of the combine experiment; trust_* is the corrupted
    referrer's trust, whose expected quality must stay below its value at
    the switch for every later step."""
    at_switch = None
    out: List[Optional[str]] = []
    for i, row in enumerate(rows):
        try:
            _require(len(row) == 11, f"{len(row)} cells")
            t = int(row[0])
            _require(t == i + 1, f"t={t}, expected {i + 1}")
            alpha_pred, alpha_obs, cert = _unit(row[1]), _unit(row[2]), _unit(row[9])
            r_pred, s_pred, r_obs, s_obs, tr, ts = (_num(c) for c in row[3:9])
            _require(min(r_pred, s_pred, r_obs, s_obs, tr, ts) >= 0.0, "negative evidence")
            _require(r_obs + s_obs == COMBINE_TX, f"observed total {r_obs + s_obs}")
            _require(close(alpha_obs, _alpha(r_obs, s_obs)), "alpha_obs != r/(r+s)")
            _require(close(alpha_pred, _alpha(r_pred, s_pred)), "alpha_pred != r/(r+s)")
            _require(cert < 1.0, f"certainty {cert}")
            _require(row[10] == "", "discount set")
            trust = _alpha(tr, ts)
            if t == COMBINE_SWITCH:
                at_switch = trust
            elif t > COMBINE_SWITCH:
                _require(at_switch is not None and trust < at_switch,
                         f"corrupted trust {trust} not below {at_switch} at the switch")
            out.append(None)
        except ValueError as exc:
            out.append(str(exc))
    return out


def _sweep_rows(rows: List[List[str]], _input: Optional[str]) -> List[Optional[str]]:
    out: List[Optional[str]] = []
    for i, row in enumerate(rows):
        try:
            _require(len(row) == 4, f"{len(row)} cells")
            _require(row[0] == SWEEP_PROFILES[i // len(SWEEP_BETAS)], f"profile {row[0]}")
            _require(row[1] == "FixedBeta", f"method {row[1]}")
            _require(abs(_num(row[2]) - SWEEP_BETAS[i % len(SWEEP_BETAS)]) <= 1e-12,
                     f"beta {row[2]}")
            _unit(row[3])
            out.append(None)
        except (ValueError, IndexError) as exc:
            out.append(str(exc))
    return out


def _feedback_values(input_text: str) -> Dict[str, List[float]]:
    """Normalized ratings per seller, sellers in first-appearance order."""
    values: Dict[str, List[float]] = {}
    for line in input_text.splitlines()[1:]:
        if line.strip():
            seller, _t, rating = line.split(",")
            values.setdefault(seller, []).append((int(rating) - 1) / 4.0)
    return values


def _geometric_error(values: Sequence[float], lam: Optional[float]) -> float:
    """Mean |prediction − actual| over feedbacks 2..n; lam None is the plain mean."""
    num = den = gaps = 0.0
    for i, v in enumerate(values):
        if i > 0:
            gaps += abs(num / den - v)
        w = 1.0 if lam is None else lam
        num, den = w * num + v, w * den + 1.0
    return gaps / (len(values) - 1)


def _amazon_rows(rows: List[List[str]], input_text: Optional[str]) -> List[Optional[str]]:
    per_seller = len(AMAZON_LAMBDAS) + 2
    sellers = list(_feedback_values(input_text).items()) if input_text else []
    out: List[Optional[str]] = []
    for i, row in enumerate(rows):
        try:
            _require(len(row) == 5, f"{len(row)} cells")
            _require(i // per_seller < len(sellers), "no such seller in the input")
            seller, values = sellers[i // per_seller]
            _require(row[0] == seller, f"seller {row[0]}, expected {seller}")
            j = i % per_seller
            error = _unit(row[3])
            _require(close(_num(row[4]), 4.0 * error), "error_1to5 != 4*error")
            if j == 0:
                _require(row[1:3] == ["Unweighted", ""], f"mode {row[1:3]}")
                _require(close(error, _geometric_error(values, None)), "Unweighted error")
            elif j <= len(AMAZON_LAMBDAS):
                lam = AMAZON_LAMBDAS[j - 1]
                _require(row[1] == "GeometricWeights" and abs(_num(row[2]) - lam) <= 1e-12,
                         f"mode {row[1:3]}")
                _require(close(error, _geometric_error(values, lam)),
                         f"GeometricWeights({lam}) error")
            else:
                _require(row[1:3] == ["TrustInHistory", ""], f"mode {row[1:3]}")
            out.append(None)
        except (ValueError, IndexError) as exc:
            out.append(str(exc))
    return out


_ROW_CHECKS: Dict[str, Callable[[List[List[str]], Optional[str]], List[Optional[str]]]] = {
    "combine": _combine_rows,
    "sweep": _sweep_rows,
    "amazon": _amazon_rows,
}


def _matches_reference(row: List[str], ref: List[str]) -> bool:
    if len(row) != len(ref):
        return False
    for cell, want in zip(row, ref):
        if cell == want:
            continue
        try:
            if not close(_num(cell), _num(want)):
                return False
        except ValueError:
            return False
    return True


def check_output(
    workload: Workload,
    exit_code: Optional[int],
    text: Optional[str],
    input_text: Optional[str] = None,
    reference_text: Optional[str] = None,
) -> CheckResult:
    """Count the failed rows of one run's output.

    ``exit_code`` is None when the command raised.  ``reference_text`` is
    the committed output for this seed, if there is one.
    """
    expected = workload.rows
    if exit_code != 0 or text is None:
        return CheckResult(expected, expected, [f"exit code {exit_code}"])
    lines = text.splitlines()
    if not lines or lines[0] != workload.header:
        return CheckResult(expected, expected, ["bad header"])
    rows = [line.split(",") for line in lines[1:]]
    verdicts = _ROW_CHECKS[workload.name](rows, input_text)
    if reference_text is not None:
        ref_rows = [line.split(",") for line in reference_text.splitlines()[1:]]
        for i, row in enumerate(rows):
            matches = i < len(ref_rows) and _matches_reference(row, ref_rows[i])
            if verdicts[i] is None and not matches:
                verdicts[i] = "differs from the reference"
    attempted = max(expected, len(rows))
    problems = [f"row {i + 1}: {v}" for i, v in enumerate(verdicts) if v is not None]
    failed = sum(1 for i, v in enumerate(verdicts) if v is not None or i >= expected)
    failed += max(0, expected - len(rows))
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    return CheckResult(attempted, failed, problems)
