"""Every CLI output in the golden manifest stays byte-identical.

The manifest and the full outputs are made by ``make_golden.py``; see there
for how to regenerate them.
"""

import json
import os

import numpy
import pytest

from make_golden import HERE, MANIFEST, SYNTH, run_case, sha256

with open(MANIFEST, encoding="utf-8") as _fh:
    _GOLDEN = json.load(_fh)


def _draws(case: str) -> bool:
    """Whether a case's output comes from numpy's seeded draws."""
    return case.split()[0] in ("simulate", "sweep") or SYNTH in case


@pytest.mark.parametrize("entry", _GOLDEN["cases"], ids=lambda entry: entry["argv"])
def test_cli_output_matches_golden(entry):
    case = entry["argv"]
    if _draws(case) and numpy.__version__ != _GOLDEN["numpy"]:
        pytest.skip(f"made with numpy {_GOLDEN['numpy']}, running {numpy.__version__}")
    code, out, err = run_case(case)
    if "stdout_file" in entry:
        with open(os.path.join(HERE, entry["stdout_file"]), encoding="utf-8", newline="") as fh:
            want = fh.read().split("\n")
        got = out.split("\n")
        moved = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
        assert got == want, f"line {moved + 1}: {got[moved:moved + 1]} != {want[moved:moved + 1]}"
    assert (code, sha256(out), err) == (entry["exit"], entry["stdout_sha256"], entry["stderr"])
