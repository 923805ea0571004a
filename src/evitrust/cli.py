"""Command-line harness: ad-hoc trust computations, experiments, sweeps,
and the feedback-prediction pipeline.

Subcommands
-----------
certainty R S                 print the certainty of evidence ⟨R, S⟩
accuracy  --method M ...      print an accuracy measure q
update    --method M ...      print the updated trust as JSON
simulate  --experiment E ...  write one experiment's per-step series
sweep     --beta-grid ...     write an error-vs-beta table
amazon    --input FILE ...    write the per-seller feedback-prediction table

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
non-convergence.  All data output is a deterministic function of the flags
(fixed column orders, repr-formatted floats, no timestamps), so repeated
runs with the same seed produce byte-identical files.

The flags' defaults and bounds come from the library where it owns them:
``ExperimentConfig`` and ``UpdateConfig`` give the run and update defaults,
``core.MAX_EVIDENCE_TOTAL`` bounds --tx and a run's evidence, --tx ×
--timesteps, and ``simulation`` bounds seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple, Type, Union, get_args

from .amazon import AmazonConfig, load_feedback_csv, parse_feedback_csv, run_amazon_experiment
from .core import MAX_EVIDENCE_TOTAL, Evidence, certainty, expected_quality
from .errors import ConvergenceError, FeedbackFormatError
from .simulation import (
    _MAX_SEED,
    _PROFILES,
    ExperimentConfig,
    HistoryMode,
    Probability,
    ReferrerProfile,
    Truthful,
    _table,
    history_errors,
    prediction_error,
    records_table,
    run_combination_experiment,
    run_history_experiment,
    run_referrer_experiment,
)
from .updates import (
    UpdateConfig,
    UpdateMethod,
    _check_update_inputs,
    accuracy_average,
    accuracy_linear,
    accuracy_max_certainty,
    accuracy_sensitivity,
    update_referrer,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


# The exit code of each error that ends a command; none of these classes is
# another's subclass.
_EXIT_CODES = {_UsageError: EXIT_USAGE, FeedbackFormatError: EXIT_DATA,
               ConvergenceError: EXIT_NUMERIC, ValueError: EXIT_DATA, OSError: EXIT_DATA}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # No prefix matching, here or in the subcommands (which argparse
        # builds with this class): ``--beta`` must not run as ``--beta-grid``.
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


# Each accuracy measure as q(observed, report).
_ACCURACY_MEASURES = {
    "linear": lambda obs, rep: accuracy_linear(expected_quality(obs), expected_quality(rep)),
    "maxcertainty": accuracy_max_certainty,
    "sensitivity": accuracy_sensitivity,
    "average": lambda obs, rep: accuracy_average(expected_quality(obs), rep),
}
_ACCURACY_MEASURES["max-certainty"] = _ACCURACY_MEASURES["maxcertainty"]


def _parse_evidence(text: str) -> Tuple[float, float]:
    """Parse 'r,s'; negative counts are left to Evidence, as a data error."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'r,s', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers 'r,s', got {text!r}")


def _int_in(least: int, most: int, shown: Optional[str] = None) -> Callable[[str], int]:
    """A parser of integers in [least, most]; its messages write ``most`` as
    ``shown``, when given."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if not least <= n <= most:
            raise argparse.ArgumentTypeError(f"must be in [{least}, {shown or most}], got {n}")
        return n
    return parse


# A run holds about 1.1–1.8 KB per step (peak RSS is 255 MB for a 2×10⁵-step
# history run and 210 MB for a 10⁵-step combine run), so 10⁶ take up to 1.8 GB.
_MAX_TIMESTEPS = 10**6
# A sweep runs its seeds one at a time and never lists them, so their count
# is bounded only as a signed 64-bit integer (and seed + seeds − 1 by
# _MAX_SEED).
_MAX_SEEDS = 2**63 - 1
# The largest seed, as messages write it.
_MAX_SEED_SHOWN = f"2**{_MAX_SEED.bit_length()} - 1"


def _parse_rate(text: str) -> float:
    """Parse a rate such as β or λ, which must lie in [0, 1]."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text!r}")
    return v


_MAX_GRID_POINTS = 10_001


def _parse_grid(text: str) -> List[float]:
    """Parse 'lo:hi:step' into a grid of rates, each in [0, 1] and rounded to
    10 digits; a step so small that rounded points repeat is an error."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi:step', got {text!r}")
    lo, hi = _parse_rate(parts[0]), _parse_rate(parts[1])
    try:
        step = float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid step must be a number, got {text!r}")
    # A NaN or infinite step would never pass hi.
    if not 0.0 < step < math.inf or hi < lo:
        raise argparse.ArgumentTypeError(f"need lo <= hi and a finite step > 0, got {text!r}")
    # Count the points before building them: a tiny step would fill memory.
    if (hi - lo + 1e-12) / step >= _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"a grid holds at most {_MAX_GRID_POINTS} points, got {text!r}"
        )
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-12:
            break
        values.append(round(v, 10))
        k += 1
    # Rounding is monotone, so a repeated point repeats its predecessor.
    if any(a == b for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(
            f"grid points repeat once rounded to 10 digits; use a larger step, got {text!r}"
        )
    return values


def parse_profile(text: str):
    """Parse a profile spec like 'probability:0.9', 'momentum:0.1,0.5',
    'rumor:50,10', or 'corrupted:50'.  The arguments fill the profile's fields
    in order, each of its default's type; extra arguments are an error."""
    name, _, argtext = text.strip().lower().partition(":")
    args = [a for a in argtext.split(",") if a] if argtext else []
    if name not in _PROFILES:
        raise argparse.ArgumentTypeError(
            f"unknown profile {text!r}; expected one of {', '.join(_PROFILES)}"
        )
    params = fields(_PROFILES[name])
    if len(args) > len(params):
        raise argparse.ArgumentTypeError(
            f"profile {name!r} takes at most {len(params)} argument(s), got {text!r}"
        )
    try:
        return _PROFILES[name](*(type(f.default)(a) for f, a in zip(params, args)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad profile arguments in {text!r}: {exc}")


def _member_of(kind: Type[Enum], noun: str,
               averagealpha: Union[Enum, str]) -> Callable[[str], Enum]:
    """A parser of ``kind``'s members by value, in any case.  The history
    method AverageAlpha parses as ``averagealpha``, a member or an error's
    message."""
    members = {m.value.lower(): m for m in kind}
    members["averagealpha"] = averagealpha

    def parse(text: str) -> Enum:
        member = members.get(text.strip().lower())
        if member is None:
            raise argparse.ArgumentTypeError(
                f"unknown {noun} {text!r}; expected one of {', '.join(m.value for m in kind)}"
            )
        if not isinstance(member, kind):
            raise argparse.ArgumentTypeError(member)
        return member
    return parse


_parse_method = _member_of(UpdateMethod, "method",
                           "AverageAlpha is a history method, not a referrer update; use "
                           "'simulate --experiment history --mode TrustInHistory'")
_parse_mode = _member_of(HistoryMode, "mode", HistoryMode.TRUST_IN_HISTORY)
_MODES = " | ".join(m.value for m in HistoryMode)


def _add_command(sub, name: str, about: str, *shared: str) -> _Parser:
    """A subcommand with --out and those of --format and --seed that it reads."""
    p = sub.add_parser(name, help=about)
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    if "--format" in shared:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format for tabular data (default %(default)s)")
    if "--seed" in shared:
        p.add_argument("--seed", type=_int_in(0, _MAX_SEED, _MAX_SEED_SHOWN), default=0,
                       help="base RNG seed (default %(default)s)")
    return p


# The defaults of ExperimentConfig, which the runs start from.
_RUN = ExperimentConfig()

# The run-dependent flags that each (command, experiment) reads, each with its
# default.  A history run reads --beta only in FixedBeta mode.
_RUN_FLAGS = {
    ("simulate", "referrer"): dict(profile=Truthful(), method=_RUN.method, beta=_RUN.beta),
    ("simulate", "combine"): dict(method=_RUN.method, beta=_RUN.beta, switch=50),
    ("simulate", "history"): dict(profile=Probability(), mode=HistoryMode.TRUST_IN_HISTORY,
                                  beta=_RUN.beta),
    ("sweep", "referrer"): dict(method=_RUN.method),
    ("sweep", "history"): dict(mode=HistoryMode.FIXED_BETA),
}
_RUN_FLAG_NAMES = tuple(dict.fromkeys(name for flags in _RUN_FLAGS.values() for name in flags))


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The CLI parser.  Named a command, it builds only that subcommand, the
    one that parsing reaches; with no command, ``-h`` or an unknown command
    it builds all of them, so that help and the list of choices are whole."""
    # The help leaves out the docstring's last paragraph, which is for readers of the code.
    parser = _Parser(prog="evitrust", description=__doc__.rpartition("\n\n")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    build_all = command not in _COMMANDS

    def add(name: str, about: str, *shared: str) -> Optional[_Parser]:
        return _add_command(sub, name, about, *shared) if build_all or name == command else None

    if p := add("certainty", "certainty of evidence ⟨r, s⟩"):
        p.add_argument("r", type=float)
        p.add_argument("s", type=float)

    if p := add("accuracy", "accuracy q of a report vs. an observation"):
        p.add_argument("--method", required=True,
                       help="linear | max-certainty | sensitivity | average")
        p.add_argument("--observed", required=True, type=_parse_evidence, metavar="R,S")
        p.add_argument("--report", required=True, type=_parse_evidence, metavar="R,S")

    if p := add("update", "one trust update of a report's source"):
        p.add_argument("--method", required=True, type=_parse_method,
                       help=" | ".join(m.value for m in UpdateMethod))
        p.add_argument("--beta", type=_parse_rate, default=UpdateConfig.beta,
                       help="forgetting rate (default %(default)s)")
        p.add_argument("--observed", required=True, type=_parse_evidence, metavar="R,S")
        p.add_argument("--report", required=True, type=_parse_evidence, metavar="R,S")
        p.add_argument("--prior", type=_parse_evidence, default=(1.0, 1.0), metavar="R,S",
                       help="prior trust in the source (default 1,1)")

    # The run-dependent flags default to None; _RUN_FLAGS holds their defaults.
    if p := add("simulate", "run one experiment, write the series", "--format", "--seed"):
        p.add_argument("--experiment", required=True, choices=("referrer", "combine", "history"))
        p.add_argument("--profile", type=parse_profile,
                       help="e.g. periodic, rumor:50,10 (referrer, "
                       "default truthful; history, default probability:0.9)")
        p.add_argument("--method", type=_parse_method,
                       help=f"referrer update (referrer and combine; default {_RUN.method.value})")
        p.add_argument("--mode", type=_parse_mode, help=f"{_MODES} (history; default "
                       f"{_RUN_FLAGS['simulate', 'history']['mode'].value})")
        p.add_argument("--beta", type=_parse_rate,
                       help="forgetting rate (referrer, combine and FixedBeta history; "
                       f"default {_RUN.beta})")
        p.add_argument("--timesteps", type=_int_in(1, _MAX_TIMESTEPS), default=_RUN.timesteps)
        p.add_argument("--tx", type=_int_in(1, int(MAX_EVIDENCE_TOTAL)), default=_RUN.tx_per_step,
                       help="transactions per step (default %(default)s)")
        p.add_argument("--switch", type=int, help="corruption step (combine; default "
                       f"{_RUN_FLAGS['simulate', 'combine']['switch']})")

    if p := add("sweep", "error vs. beta over a grid", "--format", "--seed"):
        p.add_argument("--experiment", choices=("referrer", "history"), default="history")
        p.add_argument("--profiles", required=True, type=_split_profiles,
                       help="comma-separated profile specs, e.g. probability:0.9,periodic")
        p.add_argument("--beta-grid", required=True, type=_parse_grid, metavar="LO:HI:STEP")
        p.add_argument("--method", type=_parse_method,
                       help=f"referrer update (referrer; default {_RUN.method.value})")
        p.add_argument("--mode", type=_parse_mode, help=f"{_MODES} (history; default "
                       f"{_RUN_FLAGS['sweep', 'history']['mode'].value})")
        p.add_argument("--seeds", type=_int_in(1, _MAX_SEEDS), default=5,
                       help="seeds averaged per grid point (default %(default)s)")
        p.add_argument("--timesteps", type=_int_in(1, _MAX_TIMESTEPS), default=_RUN.timesteps)
        p.add_argument("--tx", type=_int_in(1, int(MAX_EVIDENCE_TOTAL)), default=_RUN.tx_per_step)

    if p := add("amazon", "feedback-prediction error table", "--format"):
        p.add_argument("--input", default=None, metavar="FILE",
                       help="feedback CSV (seller_id,t,rating); default: bundled sample")
        p.add_argument("--lambda-grid", type=_parse_grid, default="0:1:0.1",
                       metavar="LO:HI:STEP",
                       help="geometric-weight retention grid (default %(default)s)")

    return parser


def _split_profiles(text: str) -> List:
    """Split a profile list on commas that start a new profile name.

    Profile arguments may themselves contain commas (momentum:0.1,0.5), so a
    comma only separates profiles when followed by a known profile name.
    """
    out, buf = [], []
    for piece in text.split(","):
        head = piece.strip().lower().partition(":")[0]
        if buf and head in _PROFILES:
            out.append(",".join(buf))
            buf = [piece]
        else:
            buf.append(piece)
    if buf:
        out.append(",".join(buf))
    return [parse_profile(p) for p in out]


def _cmd_certainty(args) -> str:
    value = certainty(Evidence(args.r, args.s))
    return f"{value:.10g}\n"


def _cmd_accuracy(args) -> str:
    measure = _ACCURACY_MEASURES.get(args.method.strip().lower())
    if measure is None:
        raise _UsageError(f"unknown accuracy method {args.method!r}")
    q = measure(Evidence(*args.observed), Evidence(*args.report))
    return f"{q:.10g}\n"


def _cmd_update(args) -> str:
    cfg = UpdateConfig(method=args.method, beta=args.beta)
    observed, report, prior = (Evidence(*args.observed), Evidence(*args.report),
                               Evidence(*args.prior))
    _check_update_inputs(cfg.method, observed, report)
    try:
        updated = update_referrer(cfg, observed, report, prior)
    except ValueError as exc:
        # The inputs are checked, so only the updated trust can be refused:
        # it adds at most one to (1 − β) times the prior's total.
        raise ValueError(f"the updated trust would leave the evidence domain ({exc}); "
                         f"lower the total of --prior") from None
    return json.dumps(updated.to_dict()) + "\n"


def _read_run_flags(args) -> List[str]:
    """Reject the run-dependent flags set that the run does not read, naming
    them and the run, then default those it reads; return those set."""
    reads = dict(_RUN_FLAGS[args.command, args.experiment])
    run = f"{args.command} --experiment {args.experiment}"
    if args.experiment == "history":
        mode = args.mode or reads["mode"]
        run += f" --mode {mode.value}"
        if mode is not HistoryMode.FIXED_BETA:
            reads.pop("beta", None)
    given = [name for name in _RUN_FLAG_NAMES if getattr(args, name, None) is not None]
    unread = [f"--{name}" for name in given if name not in reads]
    if unread:
        raise _UsageError(f"{run} does not read {', '.join(unread)}")
    vars(args).update((name, v) for name, v in reads.items() if name not in given)
    return given


def _experiment_config(args, **overrides) -> ExperimentConfig:
    """The run's config; --method and --beta, when unread, keep its defaults.

    Every field but the run's evidence, --tx × --timesteps, was checked as
    its flag parsed, so the config's ValueError is about those two flags."""
    base = dict(timesteps=args.timesteps, tx_per_step=args.tx, seed=args.seed)
    base.update((k, v) for k, v in vars(args).items() if k in ("method", "beta") and v is not None)
    try:
        return ExperimentConfig(**{**base, **overrides})
    except ValueError as exc:
        raise _UsageError(f"--tx and --timesteps: {exc}") from None


def _require_behavior_profiles(*profiles) -> None:
    if any(isinstance(profile, get_args(ReferrerProfile)) for profile in profiles):
        raise _UsageError("history experiment needs a behavior profile, not a referrer profile")


def _cmd_simulate(args) -> str:
    given = _read_run_flags(args)
    cfg = _experiment_config(args)
    if args.experiment == "referrer":
        records = run_referrer_experiment(cfg, args.profile)
    elif args.experiment == "combine":
        if not 0 <= args.switch < args.timesteps:
            got = f"got {args.switch}" if "switch" in given else f"its default is {args.switch}"
            raise _UsageError(f"--switch must be in [0, {args.timesteps}) for "
                              f"--timesteps {args.timesteps}; {got}")
        records = run_combination_experiment(cfg, switch_step=args.switch).records
    else:
        _require_behavior_profiles(args.profile)
        records = run_history_experiment(cfg, args.profile, args.mode)
    return records_table(records, args.format)


def _cmd_sweep(args) -> str:
    if args.seed + args.seeds - 1 > _MAX_SEED:
        raise _UsageError(f"--seed {args.seed} with --seeds {args.seeds} runs up to seed "
                          f"{args.seed + args.seeds - 1}, past {_MAX_SEED_SHOWN}")
    _read_run_flags(args)
    if args.experiment == "history":
        _require_behavior_profiles(*args.profiles)
    header = ["profile", "method", "beta", "error"]
    label = args.mode.value if args.experiment == "history" else args.method.value
    rows = []
    for profile in args.profiles:
        # Each β's errors summed over the seeds as they run, left to right, so
        # that the mean is the same float on any Python (3.12 made ``sum`` of
        # floats compensated).
        totals = [0.0] * len(args.beta_grid)
        for seed in range(args.seed, args.seed + args.seeds):
            if args.experiment == "history":
                # One draw per seed scores the whole grid.
                errors = history_errors(_experiment_config(args, seed=seed), profile,
                                        args.mode, args.beta_grid)
            else:
                errors = [prediction_error(run_referrer_experiment(
                    _experiment_config(args, seed=seed, beta=beta), profile))
                    for beta in args.beta_grid]
            totals = [total + error for total, error in zip(totals, errors)]
        rows += ([type(profile).__name__, label, beta, total / args.seeds]
                 for beta, total in zip(args.beta_grid, totals))
    return _table(header, rows, args.format)


def _bundled_sample_text() -> str:
    from importlib import resources  # only the bundled sample needs it

    return resources.files("evitrust").joinpath("data/amazon_sample.csv").read_text("utf-8")


# The paper's name of each history mode as a feedback predictor.
_PREDICTORS = {HistoryMode.AMAZON: "Unweighted", HistoryMode.FIXED_BETA: "GeometricWeights",
               HistoryMode.TRUST_IN_HISTORY: "TrustInHistory"}


def _cmd_amazon(args) -> str:
    if args.input:
        records = load_feedback_csv(args.input)
    else:
        records = parse_feedback_csv(_bundled_sample_text())
    configs = [AmazonConfig(mode=HistoryMode.AMAZON)]
    configs += [AmazonConfig(mode=HistoryMode.FIXED_BETA, lambda_=lam) for lam in args.lambda_grid]
    configs.append(AmazonConfig(mode=HistoryMode.TRUST_IN_HISTORY))
    results = run_amazon_experiment(records, configs)
    header = ["seller_id", "mode", "lambda", "error", "error_1to5"]
    rows = [[r.seller_id, _PREDICTORS[r.mode], r.lambda_, r.error, r.error_scale5]
            for r in results]
    return _table(header, rows, args.format)


_COMMANDS = {
    "certainty": _cmd_certainty,
    "accuracy": _cmd_accuracy,
    "update": _cmd_update,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "amazon": _cmd_amazon,
}


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status instead of raising."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        text = _COMMANDS[args.command](args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
