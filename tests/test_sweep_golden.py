"""The default sweep against its committed metrics.

``sweep_summary.json`` beside this file is what ``microfreq sweep --out``
wrote for the default seeds, kinds and config. A change that moves any
run's metrics fails here, on any BLAS kernel, so drift against a past
commit needs no by-hand comparison. A change that moves results on purpose
rewrites the file (``microfreq sweep --out`` and a copy) and says why.
"""

import json
import math
import pathlib

from microfreq.cli import main

GOLDEN = pathlib.Path(__file__).with_name("sweep_summary.json")

# The BLAS kernel numpy picks at run time can sum a product in another
# order. Against the default kernel (SkylakeX), the sweep's floats moved by
# at most 1.6e-13 relative under OPENBLAS_CORETYPE=Haswell (115 of 630
# fields) and 9.6e-13 under Prescott (208 fields), and its ints, nulls and
# strings not at all. So floats hold within a relative 1e-10, about a
# hundred times the widest spread, and everything else exactly.
GOLDEN_RTOL = 1e-10


def assert_matches(got, want, where="summary"):
    """``got`` equals ``want`` field by field: floats within GOLDEN_RTOL,
    everything else exactly, with the same types, keys and lengths."""
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, (where, got, want)


def test_the_default_sweep_matches_its_golden_metrics(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    assert "all runs ordered mpc < pi_all < pi_dubess: yes" in capsys.readouterr().out
    got = json.loads((tmp_path / "sweep_summary.json").read_text())
    want = json.loads(GOLDEN.read_text())
    assert len(want) == 45
    assert_matches(got, want)
