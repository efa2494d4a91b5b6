"""Write reference.json: stored values for checks that have no closed form.

Run once from the repository root, at the commit the values are frozen from:
``python3 perfbench/make_reference.py``.  The spectral values are the
variable-order approximation numbers of the spectral workload; the entropy
rows are the bracket printed by the cli workload's entropy command.  Do not
regenerate them to make a failing check pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from varfrac import LogPowerOffset, PowerOffset, approximation_numbers  # noqa: E402


def main() -> None:
    orders = {"ex1:0.5,1,2": PowerOffset(0.5, 1.0, 2.0), "ex2:0.3,0.5,1": LogPowerOffset(0.3, 0.5, 1.0)}
    spectral = {
        label: [float(v) for v in approximation_numbers(alpha, n_max=16, n_disc=128).values]
        for label, alpha in orders.items()
    }
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-m", "varfrac.cli", "entropy", "--alpha", "ex1:0.5,1,1", "--n-grid", "2^6..2^12"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    entropy = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"spectral": spectral, "cli_entropy": entropy}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
