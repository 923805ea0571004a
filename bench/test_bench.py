"""Tests of the benchmark itself: run with ``python3 -m pytest -q bench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from check import check_output
from tracer import PER_LAYER, Tracer, self_times, summarize
from workloads import REFERENCE_SEED, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _reference(name):
    with open(os.path.join(BENCH, "reference", f"{name}.csv"), encoding="utf-8") as fh:
        return fh.read()


def _span(name, start, end, parent, ok=True):
    return [name, start, end, parent, "run", ok]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a1", 2.0, 3.0, 1),
        _span("b", 5.0, 8.0, 0),
        _span("c", 7.0, 9.0, 0),    # overlaps b: [5, 9] is covered once
        _span("d", 9.5, 11.0, 0),   # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 4.0 - 0.5, 2.0, 1.0, 3.0, 2.0, 1.5])


def test_summarize_counts_ratios_and_failures():
    spans = [
        _span("core.from_belief", 0.0, 4.0, -1),
        _span("core.certainty", 0.5, 1.0, 0),
        _span("numerics.find_unit_crossings", 0.6, 0.9, 1),
        _span("core.certainty", 1.5, 2.0, 0),
        _span("core.from_belief", 5.0, 6.0, -1, ok=False),
        _span("core.certainty", 5.2, 5.4, 4),
        _span("core.certainty", 7.0, 7.1, -1),  # not below from_belief
    ]
    counters = {"numerics.log_beta": 12, "numerics.find_unit_crossings.evals": 40}
    m = summarize(counters, spans)
    assert m["core.from_belief.calls"] == 2
    assert m["core.from_belief.failed"] == 1
    assert m["core.from_belief.certainty_per_call"] == 1.5
    assert m["core.from_belief.self_s"] == pytest.approx(4.0 - 1.0 + 1.0 - 0.2)
    assert m["core.certainty.calls"] == 4
    assert m["core.certainty.self_s"] == pytest.approx(0.2 + 0.5 + 0.2 + 0.1)
    assert m["numerics.find_unit_crossings.evals_per_call"] == 40
    assert m["numerics.log_beta.calls"] == 12
    assert m["amazon.predict_feedback.calls"] == 0
    assert m["amazon.predict_feedback.p99_us"] == 0
    assert "trace.overhead_s" not in m


def test_reference_output_passes_and_a_perturbed_row_fails():
    workload = WORKLOADS["combine"]
    text = _reference("combine")
    assert check_output(workload, 0, text, reference_text=text).failed == 0

    lines = text.splitlines()
    cells = lines[10].split(",")
    cells[9] = repr(float(cells[9]) * (1 + 1e-4))  # certainty column
    lines[10] = ",".join(cells)
    result = check_output(workload, 0, "\n".join(lines) + "\n", reference_text=text)
    assert (result.attempted, result.failed) == (workload.rows, 1)

    cells[9] = repr(float(text.splitlines()[10].split(",")[9]) * (1 + 1e-12))
    lines[10] = ",".join(cells)
    assert check_output(workload, 0, "\n".join(lines) + "\n", reference_text=text).failed == 0


def test_missing_and_extra_rows_fail():
    workload = WORKLOADS["sweep"]
    text = _reference("sweep")
    lines = text.splitlines()
    short = check_output(workload, 0, "\n".join(lines[:-2]) + "\n")
    assert (short.attempted, short.failed) == (workload.rows, 2)
    long = check_output(workload, 0, text + lines[-1] + "\n")
    assert (long.attempted, long.failed) == (workload.rows + 1, 1)


def test_invariants_catch_an_out_of_range_row_without_a_reference():
    workload = WORKLOADS["sweep"]
    lines = _reference("sweep").splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",1.5"
    assert check_output(workload, 0, "\n".join(lines) + "\n").failed == 1


@pytest.mark.parametrize("exit_code", [1, 2, 3, None])
def test_failed_run_fails_every_row(exit_code):
    workload = WORKLOADS["amazon"]
    result = check_output(workload, exit_code, _reference("amazon"))
    assert (result.attempted, result.failed) == (workload.rows, workload.rows)


def _import_evitrust():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import evitrust

    return evitrust


def test_amazon_errors_are_recomputed_from_the_input(tmp_path):
    _import_evitrust()
    import worker

    worker._write_feedback(str(tmp_path / "input.csv"), REFERENCE_SEED)
    input_text = (tmp_path / "input.csv").read_text(encoding="utf-8")
    workload = WORKLOADS["amazon"]
    text = _reference("amazon")
    assert check_output(workload, 0, text, input_text=input_text).failed == 0
    # Swapping two sellers' inputs breaks the Unweighted and geometric rows.
    swapped = input_text.replace("seller01", "tmp").replace("seller02", "seller01").replace(
        "tmp", "seller02")
    assert check_output(workload, 0, text, input_text=swapped).failed > 0


def test_tracer_patches_every_alias_and_restores_them():
    evitrust = _import_evitrust()
    import evitrust.core
    import evitrust.numerics

    originals = (evitrust.certainty, evitrust.core.certainty, evitrust.core.find_unit_crossings)
    tracer = Tracer("t")
    tracer.install()
    try:
        c = evitrust.certainty(evitrust.Evidence(45.0, 5.0))  # package-level alias
    finally:
        tracer.uninstall()
    assert (evitrust.certainty, evitrust.core.certainty,
            evitrust.core.find_unit_crossings) == originals
    assert 0.0 < c < 1.0
    names = [s[0] for s in tracer.spans]
    assert names[0] == "core.certainty"
    assert names.count("numerics.find_unit_crossings") == 1
    assert names.count("numerics.regularized_incomplete_beta") == 2
    assert all(s[3] == 0 for s in tracer.spans[1:])  # called from certainty
    assert tracer.counters["numerics.log_beta"] > 0
    assert tracer.counters["numerics.find_unit_crossings.evals"] > 10


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "combine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
