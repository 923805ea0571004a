"""Every CLI output in the golden manifest stays byte-identical.

The manifest and the full outputs are made by ``make_golden.py``; see there
for how to regenerate them.
"""

import json
import os

import numpy
import pytest

from evitrust.simulation import _Stream
from make_golden import HERE, MANIFEST, run_case, sha256

with open(MANIFEST, encoding="utf-8") as _fh:
    _GOLDEN = json.load(_fh)


@pytest.mark.parametrize("entry", _GOLDEN["cases"], ids=lambda entry: entry["argv"])
def test_cli_output_matches_golden(entry, monkeypatch):
    """A case whose draws reach numpy's BTPE branch, which the streams hand
    to numpy, is checked only under the numpy that made the goldens."""
    case = entry["argv"]
    handoffs = []
    numpy_binomial = _Stream._numpy_binomial
    monkeypatch.setattr(_Stream, "_numpy_binomial",
                        lambda stream, n, ps: handoffs.append(n) or numpy_binomial(stream, n, ps))
    code, out, err = run_case(case)
    if handoffs and numpy.__version__ != _GOLDEN["numpy"]:
        pytest.skip(f"{len(handoffs)} binomial calls by numpy's BTPE, made with numpy "
                    f"{_GOLDEN['numpy']}, running {numpy.__version__}")
    if "stdout_file" in entry:
        with open(os.path.join(HERE, entry["stdout_file"]), encoding="utf-8", newline="") as fh:
            want = fh.read().split("\n")
        got = out.split("\n")
        moved = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
        assert got == want, f"line {moved + 1}: {got[moved:moved + 1]} != {want[moved:moved + 1]}"
    assert (code, sha256(out), err) == (entry["exit"], entry["stdout_sha256"], entry["stderr"])
