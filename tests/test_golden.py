"""Same numbers, within a stated tolerance: the CLI against tests/golden.json.

Every command of tools/cli_digest.py runs in this process through
``varfrac.cli.main``, in a fresh directory holding the digest's inputs.  Its
exit code and the text of stdout, stderr and any ``--output`` file, with the
numbers cut out, must match the golden file exactly; each number must match
to REL relative, or, in a ``k,sigma_k`` spectrum, to that spectrum's printed
roundoff floor absolute.  ``python tools/cli_digest.py --write-golden``
regenerates the file.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)

GOLDEN = json.loads(cli_digest.GOLDEN.read_text())

#: relative tolerance on every number
REL = 1e-12


def printed_floor(stream: dict) -> float:
    """Absolute roundoff floor of a stream's numbers.

    A ``k,sigma_k`` spectrum of n values prints values below
    n * eps * sigma_1 as 0.0 (spectral._spectrum_text): values near that
    floor carry roundoff of about its size.  Other text has no floor.
    """
    if not stream["text"].startswith("k,sigma_k\n"):
        return 0.0
    sigma = [float(x) for x in stream["numbers"][1::2]]
    return len(sigma) * np.finfo(float).eps * max(sigma, default=0.0)


def number_mismatches(got: list[str], want: list[str], floor: float) -> list[str]:
    """Each pair of printed numbers that differs past REL and the floor."""
    bad = []
    for k, (g, w) in enumerate(zip(got, want)):
        gv, wv = float(g), float(w)
        if math.isnan(wv) and math.isnan(gv):
            continue
        if gv == wv or abs(gv - wv) <= max(REL * abs(wv), floor):
            continue
        bad.append(f"number {k}: got {g}, want {w}")
    return bad


def test_golden_covers_the_digest_commands():
    assert [e["command"] for e in GOLDEN] == cli_digest.all_commands(), (
        "the command list changed; rerun tools/cli_digest.py --write-golden"
    )


@pytest.mark.parametrize("want", GOLDEN, ids=[e["command"] for e in GOLDEN])
def test_cli_matches_golden(want, tmp_path):
    got = cli_digest.run_in_process(want["command"], cli_digest.make_workdir(tmp_path))
    assert got["exit"] == want["exit"]
    assert got.keys() == want.keys()
    for name in ("stdout", "stderr", "file"):
        if want.get(name) is None:
            assert got.get(name) is None, name
            continue
        assert got[name]["text"] == want[name]["text"], name
        assert len(got[name]["numbers"]) == len(want[name]["numbers"]), name
        bad = number_mismatches(got[name]["numbers"], want[name]["numbers"],
                                printed_floor(want[name]))
        assert not bad, f"{name}: " + "; ".join(bad[:5])
