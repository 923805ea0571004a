"""The benchmark's workloads: each is one ``evitrust`` CLI command.

Every workload is a command a user would type.  Its inputs come only from
the workload seed: the ``--seed`` flag, and for ``amazon`` a feedback CSV
that the worker synthesizes during set-up.  ``rows`` is the number of data
rows the command must write to ``--out``; the correctness check counts
failures against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

# Seed whose outputs are committed under reference/ and compared row by row.
REFERENCE_SEED = 0

COMBINE_TIMESTEPS = 300
COMBINE_SWITCH = 150
COMBINE_TX = 50
SWEEP_PROFILES = ("Probability", "Periodic")
SWEEP_BETAS = tuple(round(0.05 * k, 10) for k in range(21))
SWEEP_SEEDS = 5
AMAZON_SELLERS = 2
AMAZON_FEEDBACKS = 1000
AMAZON_LAMBDAS = tuple(round(0.1 * k, 10) for k in range(11))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int, str, str], List[str]]  # (seed, input path, out path)
    header: str
    rows: int
    needs_input: bool = False


def _combine_argv(seed: int, _input: str, out: str) -> List[str]:
    return ["simulate", "--experiment", "combine", "--timesteps", str(COMBINE_TIMESTEPS),
            "--switch", str(COMBINE_SWITCH), "--tx", str(COMBINE_TX),
            "--seed", str(seed), "--out", out]


def _sweep_argv(seed: int, _input: str, out: str) -> List[str]:
    return ["sweep", "--experiment", "history", "--profiles", "probability:0.9,periodic",
            "--beta-grid", "0:1:0.05", "--seeds", str(SWEEP_SEEDS),
            "--seed", str(seed), "--out", out]


def _amazon_argv(_seed: int, input_path: str, out: str) -> List[str]:
    return ["amazon", "--input", input_path, "--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "combine",
            "long combine run with a mid-run switch: from_belief's inverse solve over "
            "certainty on large and one-sided evidence dominates",
            _combine_argv,
            "t,alpha_pred,alpha_obs,r_pred,s_pred,r_obs,s_obs,trust_r,trust_s,certainty,discount",
            COMBINE_TIMESTEPS,
        ),
        Workload(
            "sweep",
            "210 short FixedBeta history runs: forward certainty and driver overhead, "
            "no inverse solve",
            _sweep_argv,
            "profile,method,beta,error",
            len(SWEEP_PROFILES) * len(SWEEP_BETAS),
        ),
        Workload(
            "amazon",
            "2x1000 synthesized feedbacks over 13 predictors: O(n^2) replay and "
            "history_update on few distinct evidence values",
            _amazon_argv,
            "seller_id,mode,lambda,error,error_1to5",
            AMAZON_SELLERS * (len(AMAZON_LAMBDAS) + 2),
            needs_input=True,
        ),
    )
}
