"""Traced stand-in for ``python -m varfrac.cli`` in the cli workload.

Usage: ``python cli_child.py <varfrac cli arguments>`` with varfrac importable.
Times ``import varfrac.cli`` and ``cli.main(argv)``, with spans around the
diagnostics and entropy functions where the CLI looks them up.  The CLI's
own output goes to stdout unchanged; spans and counts go to stderr as one
JSON line.
"""

import json
import sys

from tracing import Tracer

DIAGNOSTICS = (
    "classify_compactness",
    "l1_criterion_integral",
    "l1_operator_norm",
    "lp_to_linf_norm",
    "verify_scaling",
    "verify_semigroup",
    "witness_separation",
)
ENTROPY = ("build_example_estimate", "fit_rate")


def main() -> int:
    tracer = Tracer()
    idx = tracer.begin("cli.import")
    import varfrac.cli as cli

    tracer.end(idx)
    for attr in DIAGNOSTICS:
        tracer.wrap(cli, attr, "diagnostics." + attr)
    for attr in ENTROPY:
        tracer.wrap(cli, attr, "entropy." + attr)
    idx = tracer.begin("cli.main")
    rc = cli.main(sys.argv[1:])
    tracer.end(idx)
    sys.stdout.flush()
    print(json.dumps({"spans": tracer.spans, "counts": tracer.counts}), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
