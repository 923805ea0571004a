"""Acceptance battery: every release-gating criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Three checks (1c, 3e, 3f) and the periodic-window check (8b) encode
reference anchors that are arithmetically inconsistent with the definitions
the rest of the battery pins down; they are kept as stated and fail, with
the computed values shown, rather than being silently retuned.  The details
of each inconsistency are spelled out in the failing assertions.
"""

import numpy as np
import pytest

from conftest import Tolerance, accuracy_average_integral
from evitrust.cli import cli_main
from evitrust.core import Evidence, certainty, expected_quality
from evitrust.simulation import (
    ExperimentConfig,
    HistoryMode,
    Periodic,
    Probability,
    Random,
    prediction_error,
    run_combination_experiment,
    run_history_experiment,
)
from evitrust.updates import (
    UpdateConfig,
    UpdateMethod,
    accuracy_average,
    accuracy_linear,
    accuracy_max_certainty,
    accuracy_sensitivity,
    update_referrer,
)

TOL_GOLDEN = 0.01 + 1e-9  # two-decimal golden values, inclusive bound


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# Criterion 1: certainty anchors
# ---------------------------------------------------------------------------


def test_criterion_01a_no_evidence_has_zero_certainty():
    value = certainty(Evidence(0, 0))
    assert report("1a", value == 0.0, f"c(0,0) = {value}")


def test_criterion_01b_single_negative_anchor():
    value = certainty(Evidence(0, 1))
    assert report("1b", abs(value - 0.25) <= 0.005, f"c(0,1) = {value:.6f}, anchor 0.25")


def test_criterion_01c_hundred_negative_anchor():
    # Anchor kept as quoted (0.99 +/- 0.005) although it contradicts the
    # certainty integral that anchors 1a/1b pin down: half the L1 distance
    # of the <0,100> density from uniform is 0.945443 (confirmed by direct
    # quadrature and by the incomplete-beta route independently).
    value = certainty(Evidence(0, 100))
    assert report("1c", abs(value - 0.99) <= 0.005, f"c(0,100) = {value:.6f}, anchor 0.99")


# ---------------------------------------------------------------------------
# Criterion 2: sixteen-entry accuracy golden table
# ---------------------------------------------------------------------------


def test_criterion_02_accuracy_golden_table():
    # rows: (observed, report) -> (max_certainty, sensitivity, linear, average)
    table = [
        ((1, 1), (1.1, 0.9), (0.99, 0.99, 0.95, 0.78)),
        ((1, 1), (220, 180), (0.99, 0.13, 0.95, 0.95)),
        ((200, 200), (1.1, 0.9), (0.13, 0.99, 0.95, 0.78)),
        ((200, 200), (220, 180), (0.13, 0.13, 0.95, 0.95)),
    ]
    failures = []
    for (ro, so), (rp, sp), (g_mc, g_se, g_li, g_av) in table:
        obs, rep = Evidence(ro, so), Evidence(rp, sp)
        alpha, alpha_p = expected_quality(obs), expected_quality(rep)
        got = {
            "max-certainty": (accuracy_max_certainty(obs, rep), g_mc),
            "sensitivity": (accuracy_sensitivity(obs, rep), g_se),
            "linear": (accuracy_linear(alpha, alpha_p), g_li),
            "average": (accuracy_average(alpha, rep), g_av),
        }
        for name, (q, want) in got.items():
            if abs(q - want) > TOL_GOLDEN:
                failures.append(f"{name}[{(ro, so)}|{(rp, sp)}]: {q:.4f} vs {want}")
    assert report("2", not failures, f"16 table entries, offenders: {failures or 'none'}")


# ---------------------------------------------------------------------------
# Criterion 3: worked one-step update increments
# ---------------------------------------------------------------------------


def _increment(method: UpdateMethod, observed, report_):
    cfg = UpdateConfig(method=method, beta=1.0)
    out = update_referrer(cfg, Evidence(*observed), Evidence(*report_), Evidence(0, 0))
    return out.r, out.s


def _check_delta(cid, method, observed, report_, want):
    dr, ds = _increment(method, observed, report_)
    ok = abs(dr - want[0]) <= TOL_GOLDEN and abs(ds - want[1]) <= TOL_GOLDEN
    assert report(
        cid, ok,
        f"{method.value} obs={observed} rep={report_}: ({dr:.4f}, {ds:.4f}) vs {want}"
    )


def test_criterion_03a_max_certainty_small_report():
    _check_delta("3a", UpdateMethod.MAX_CERTAINTY, (2, 1), (5, 5), (0.37, 0.07))


def test_criterion_03b_max_certainty_exaggerated_report():
    _check_delta("3b", UpdateMethod.MAX_CERTAINTY, (2, 1), (1000, 1000), (0.79, 0.15))


def test_criterion_03c_sensitivity_exaggerated_report():
    _check_delta("3c", UpdateMethod.SENSITIVITY, (2, 1), (1000, 1000), (0.01, 0.93))


def test_criterion_03d_average_confident_accurate_report():
    _check_delta("3d", UpdateMethod.AVERAGE_BETA, (800, 200), (19, 6), (0.53, 0.06))


def test_criterion_03e_sensitivity_confident_accurate_report():
    # Anchor kept as quoted: (0.24, 0.55) is reproducible only by weighting
    # the increment with certainty(observed)*certainty(report), which
    # contradicts anchors 3a-3c (they require certainty(report) alone, as the
    # sensitivity method defines).  Under the method's own weighting the
    # increment is (0.2592, 0.5960).
    _check_delta("3e", UpdateMethod.SENSITIVITY, (800, 200), (190, 60), (0.24, 0.55))


def test_criterion_03f_max_certainty_near_peak_report():
    # Anchor kept as quoted: (0.06, 0.58) is unreachable under any weighting;
    # the accuracy ratio is 0.0104, so the positive increment is bounded by
    # 0.0104 regardless of the certainty weight (the 0.06 appears to drop a
    # zero from 0.006).  Computed increment: (0.0066, 0.6289).
    _check_delta("3f", UpdateMethod.MAX_CERTAINTY, (800, 200), (19, 6), (0.06, 0.58))


# ---------------------------------------------------------------------------
# Criterion 4: closed form vs. quadrature oracle
# ---------------------------------------------------------------------------


def test_criterion_04_average_oracle_equivalence():
    rng = np.random.default_rng(20240601)
    tol = Tolerance(1e-12, 40)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform()
        total = rng.uniform(0.0, 1000.0)
        r = rng.uniform() * total
        rep = Evidence(r, total - r)
        diff = abs(accuracy_average(alpha, rep) - accuracy_average_integral(alpha, rep, tol))
        worst = max(worst, diff)
    assert report("4", worst <= 1e-6, f"worst |closed-integral| = {worst:.2e} over 1000 draws")


# ---------------------------------------------------------------------------
# Criterion 5: boundedness and monotonicity property suites
# ---------------------------------------------------------------------------


def test_criterion_05a_boundedness():
    rng = np.random.default_rng(11)
    bad = 0
    for _ in range(10_000):
        to, tr = rng.uniform(0.01, 1000.0, size=2)
        obs = Evidence(rng.uniform() * to, 0)
        obs = Evidence(obs.r, to - obs.r)
        rp = rng.uniform() * tr
        rep = Evidence(rp, tr - rp)
        alpha, alpha_p = expected_quality(obs), expected_quality(rep)
        qs = (
            accuracy_linear(alpha, alpha_p),
            accuracy_max_certainty(obs, rep),
            accuracy_sensitivity(obs, rep),
            accuracy_average(alpha, rep),
        )
        bad += sum(not (0.0 <= q <= 1.0) for q in qs)
    assert report("5a", bad == 0, f"{bad} out-of-range accuracies over 4x10^4 evaluations")


def _strictly_increasing(values):
    return all(b > a for a, b in zip(values, values[1:]))


def test_criterion_05b_monotonicity():
    # Closer to the fixed estimate must mean strictly higher accuracy, on
    # 50-point grids strictly below and strictly above the estimate (100
    # alpha values per draw), clipped away from the endpoints so the sharp
    # measures stay representable.
    rng = np.random.default_rng(12)
    failures = 0
    for _ in range(100):
        total = rng.uniform(0.5, 200.0)
        r = rng.uniform(0.1, 0.9) * total
        fixed = Evidence(r, total - r)
        peak_rep = expected_quality(fixed)
        mean_rep = (fixed.r + 1) / (fixed.total + 2)

        def side_grids(center):
            below = list(np.linspace(max(0.01, center - 0.35), center, 51)[:-1])
            above = list(np.linspace(center, min(0.99, center + 0.35), 51)[1:])
            return below, above

        def check(fn, center):
            below, above = side_grids(center)
            return _strictly_increasing([fn(x) for x in below]) and _strictly_increasing(
                [fn(x) for x in reversed(above)]
            )

        failures += not check(lambda x: accuracy_max_certainty(fixed, Evidence(x, 1 - x)), peak_rep)
        failures += not check(lambda x: accuracy_sensitivity(Evidence(x, 1 - x), fixed), peak_rep)
        failures += not check(lambda x: accuracy_linear(x, peak_rep), peak_rep)
        failures += not check(lambda x: accuracy_average(x, fixed), mean_rep)
    assert report("5b", failures == 0, f"{failures} monotonicity violations over 400 grids")


# ---------------------------------------------------------------------------
# Criterion 6: asymptotic sensitivity and convergence
# ---------------------------------------------------------------------------


def test_criterion_06_asymptotics():
    q_mc = accuracy_max_certainty(Evidence(6000, 4000), Evidence(1, 1))
    q_se = accuracy_sensitivity(Evidence(3, 2), Evidence(5000, 5000))
    q_av_200 = accuracy_average(0.6, Evidence(100, 100))
    q_av_100k = accuracy_average(0.6, Evidence(50_000, 50_000))
    ok = (
        q_mc < 0.01
        and q_se < 0.01
        and abs(q_av_200 - 0.90) < 0.02
        and abs(q_av_100k - 0.90) < 1e-3
    )
    assert report(
        "6", ok,
        f"mc@1e4={q_mc:.1e} sens@1e4={q_se:.1e} avg@200={q_av_200:.4f} avg@1e5={q_av_100k:.6f}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: combined-estimate dynamics around a mid-run corruption
# ---------------------------------------------------------------------------


def test_criterion_07_combination_dynamics():
    # The corruption step and discount factor are free parameters of this
    # scenario; beta = 0.3 is the calibrated default (see the experiment
    # docstring for the corrupted referrer's reporting model).
    seeds = range(20)
    switch = 50
    est = []
    bad = []
    for seed in seeds:
        cfg = ExperimentConfig(timesteps=80, seed=seed, beta=0.3)
        res = run_combination_experiment(cfg, switch_step=switch)
        est.append([rec.alpha_pred for rec in res.records])
        bad.append([expected_quality(tr) for tr in res.corrupted_trust])
    est = np.asarray(est).mean(axis=0)
    bad = np.asarray(bad).mean(axis=0)

    pre = float(est[19:switch].mean())
    dip = float(est[switch : switch + 10].min())
    recovered = float(est[switch + 9])
    bad_floor = float(bad[switch : switch + 15].min())

    ok_pre = pre >= 0.87
    ok_dip = dip < 0.80
    ok_rec = recovered >= 0.85
    ok_bad = bad_floor < 0.20
    assert report(
        "7", ok_pre and ok_dip and ok_rec and ok_bad,
        f"pre={pre:.3f} (>=0.87) dip={dip:.3f} (<0.80) "
        f"estimate@+10={recovered:.3f} (>=0.85) corrupted-trust@<=+15={bad_floor:.3f} (<0.20)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: self-tuning history discount
# ---------------------------------------------------------------------------


def _history_error(profile, mode, beta, seeds):
    errs = []
    for seed in seeds:
        cfg = ExperimentConfig(seed=seed, beta=beta)
        errs.append(prediction_error(run_history_experiment(cfg, profile, mode)))
    return float(np.mean(errs))


def test_criterion_08a_probability_self_tuning_dominates():
    seeds = range(10)
    grid = [round(b, 2) for b in np.arange(0.0, 1.0001, 0.01)]
    fixed = min(_history_error(Probability(0.9), HistoryMode.FIXED_BETA, b, seeds) for b in grid)
    tih = _history_error(Probability(0.9), HistoryMode.TRUST_IN_HISTORY, 0.2, seeds)
    assert report(
        "8a", tih <= fixed + 0.02,
        f"trust-in-history={tih:.4f} vs best fixed over 101-point grid={fixed:.4f} (+0.02 slack)",
    )


def test_criterion_08b_periodic_error_window():
    # Window kept as quoted (0.50 +/- 0.05 for every mode).  The fixed-beta
    # error curve on the alternating profile is (1+rho)/(2(1+rho^2)) with
    # rho = 1-beta: exactly 0.50 at the endpoints but 0.60 at mid-beta, and
    # the self-tuned weight settles in that same mid zone, so mid-grid modes
    # sit near 0.60 and the window cannot hold for all of them.
    seeds = range(10)
    errors = {"Amazon": _history_error(Periodic(), HistoryMode.AMAZON, 0.0, seeds)}
    for b in np.arange(0.0, 1.0001, 0.05):
        errors[f"FixedBeta({b:.2f})"] = _history_error(
            Periodic(), HistoryMode.FIXED_BETA, round(float(b), 2), seeds
        )
    errors["TrustInHistory"] = _history_error(Periodic(), HistoryMode.TRUST_IN_HISTORY, 0.2, seeds)
    offenders = {k: round(v, 4) for k, v in errors.items() if abs(v - 0.50) > 0.05}
    assert report(
        "8b", not offenders,
        f"modes outside 0.50+/-0.05: {offenders or 'none'}",
    )


def test_criterion_08c_certainty_reflects_dynamism():
    seeds = range(10)

    def mean_certainty(profile):
        vals = []
        for seed in seeds:
            recs = run_history_experiment(
                ExperimentConfig(seed=seed), profile, HistoryMode.TRUST_IN_HISTORY
            )
            vals.append(np.mean([r.certainty_pred for r in recs[-50:]]))
        return float(np.mean(vals))

    c_prob = mean_certainty(Probability(0.9))
    c_rand = mean_certainty(Random())
    c_per = mean_certainty(Periodic())
    ok = c_rand < c_prob and c_per < c_prob
    assert report(
        "8c", ok,
        f"mean certainty last 50 steps: probability={c_prob:.3f} "
        f"random={c_rand:.3f} periodic={c_per:.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: feedback-prediction pipeline
# ---------------------------------------------------------------------------


def test_criterion_09_feedback_pipeline():
    from evitrust.amazon import (
        AmazonConfig,
        normalize_rating,
        predict_feedback,
        run_amazon_experiment,
        synthesize_feedback,
    )

    history = [normalize_rating(r) for r in (3, 1, 2, 4)]
    mean_pred = 1 + 4 * predict_feedback(history, AmazonConfig(mode=HistoryMode.AMAZON))
    mean_err = abs(mean_pred - 3.0)
    geo_pred = 1 + 4 * predict_feedback(
        history, AmazonConfig(mode=HistoryMode.FIXED_BETA, lambda_=0.9)
    )
    ok_worked = (
        abs(mean_pred - 2.50) < 1e-9
        and abs(mean_err - 0.50) < 1e-9
        and abs(geo_pred - 2.56) <= 0.005
    )

    records = synthesize_feedback(sellers=5, feedbacks_per_seller=80, seed=42)
    grid = [round(l, 2) for l in np.arange(0.0, 1.0001, 0.05)]
    configs = [AmazonConfig(mode=HistoryMode.FIXED_BETA, lambda_=l) for l in grid]
    configs.append(AmazonConfig(mode=HistoryMode.TRUST_IN_HISTORY))
    rows = run_amazon_experiment(records, configs)
    geo_errors = {}
    tih_errors = []
    for row in rows:
        if row.mode is HistoryMode.FIXED_BETA:
            geo_errors.setdefault(row.lambda_, []).append(row.error)
        else:
            tih_errors.append(row.error)
    best_geo = min(float(np.mean(v)) for v in geo_errors.values())
    tih = float(np.mean(tih_errors))
    ok_synth = tih <= best_geo + 0.02

    assert report(
        "9", ok_worked and ok_synth,
        f"mean-pred={mean_pred:.2f} (2.50) err={mean_err:.2f} (0.50) "
        f"weighted-pred={geo_pred:.4f} (2.56+/-0.005); "
        f"synthetic: trust-in-history={tih:.4f} vs best fixed={best_geo:.4f} (+0.02)",
    )


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path, capsys):
    sim = ["simulate", "--experiment", "history", "--profile", "randomwalk:0.2",
           "--mode", "TrustInHistory", "--seed", "123", "--timesteps", "30"]
    swp = ["sweep", "--profiles", "probability:0.9,random", "--beta-grid", "0:1:0.25",
           "--seeds", "3", "--timesteps", "20", "--seed", "7"]
    pairs = []
    for name, argv in (("simulate", sim), ("sweep", swp)):
        f1, f2 = tmp_path / f"{name}1.out", tmp_path / f"{name}2.out"
        assert cli_main(argv + ["--out", str(f1)]) == 0
        assert cli_main(argv + ["--out", str(f2)]) == 0
        pairs.append((name, f1.read_bytes() == f2.read_bytes()))
    capsys.readouterr()
    ok = all(same for _, same in pairs)
    assert report("10", ok, "; ".join(f"{n}: {'identical' if s else 'DIFFERS'}" for n, s in pairs))
