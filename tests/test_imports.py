"""Import contract: the package namespace is lazy, and each CLI subcommand
loads only the varfrac modules it runs."""

import json
import os
import subprocess
import sys

import pytest

import varfrac
import varfrac.cli as cli

SRC = os.path.dirname(os.path.dirname(varfrac.__file__))

# after the code runs, prints the loaded varfrac modules and whether numpy.ma
# and numpy.polynomial are loaded, as one JSON line on stderr (stdout carries
# the CLI's output)
REPORT = (
    "print(json.dumps({'varfrac': sorted(m for m in sys.modules if m.startswith('varfrac')),"
    " 'numpy.ma': 'numpy.ma' in sys.modules,"
    " 'numpy.polynomial': 'numpy.polynomial' in sys.modules}), file=sys.stderr)"
)

SHELL = ["varfrac", "varfrac.cli", "varfrac.core", "varfrac.orders"]


def fresh_process(code: str, *argv: str) -> dict:
    """Run ``code`` then REPORT in a fresh interpreter; the parsed report."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n{REPORT}", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stderr.splitlines()[-1])


def test_import_loads_no_submodule():
    assert fresh_process("import varfrac")["varfrac"] == ["varfrac"]


def test_submodule_import_loads_its_dependencies_only():
    loaded = fresh_process("from varfrac import core, spectral")["varfrac"]
    assert loaded == ["varfrac", "varfrac.core", "varfrac.orders", "varfrac.spectral"]


def test_name_lookup_loads_only_the_modules_searched():
    loaded = fresh_process("from varfrac import Constant")["varfrac"]
    assert loaded == ["varfrac", "varfrac.core", "varfrac.orders"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["apply", "--alpha", "const:0.5", "--targets", "5"], []),
        (["verify", "--suite", "maxbound", "--trials", "1"], []),
        (["diagnose", "--alpha", "const:1", "--check", "lptolinf"], ["varfrac.diagnostics"]),
        (["spectrum", "--alpha", "const:0.5", "--n", "8"], ["varfrac.spectral"]),
        (
            ["entropy", "--alpha", "ex1:0.5,1,1", "--n-grid", "2^6..2^7"],
            ["varfrac.entropy"],
        ),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, extra):
    report = fresh_process("import varfrac.cli\nassert varfrac.cli.main(sys.argv[1:]) == 0", *argv)
    assert report["varfrac"] == sorted(SHELL + extra)
    # np.unique imports numpy.ma on its first call, 15-17 ms of a cold start
    assert not report["numpy.ma"]
    # numpy.polynomial (about 5 ms) serves spectral's and the diagnostics'
    # Gauss rules, which these subcommands never use
    if "varfrac.spectral" not in extra:
        assert not report["numpy.polynomial"]


def test_dir_lists_every_export():
    assert set(varfrac.__all__) <= set(dir(varfrac))


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from varfrac import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(varfrac.__all__)


@pytest.mark.parametrize("module", [varfrac, cli], ids=["varfrac", "varfrac.cli"])
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_cli_names_resolve_to_their_modules():
    from varfrac import diagnostics, entropy, spectral

    for module in (diagnostics, entropy, spectral):
        for name in cli._LAZY[module.__name__.rpartition(".")[2]]:
            assert getattr(cli, name) is getattr(module, name), name
