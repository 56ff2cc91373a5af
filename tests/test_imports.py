"""Start-up cost: the lazy ``pdo`` namespace, and which modules each CLI
command loads.  Import footprints are read in a fresh interpreter, because
this process has loaded every module already."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdo

SRC = str(Path(pdo.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))

# prints the modules that `main(argv)` loaded beyond those of a bare interpreter
FOOTPRINT = """
import contextlib, io, json, sys
before = set(sys.modules)
from pdo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""

X = '{"num":["0/1","1/1"],"den":["1/1"]}'
ONE = '{"num":["1/1"],"den":["1/1"]}'
SERIES = '{"ring":{"kind":"qz"},"val":0,"order":4,"coeffs":[' + ONE + "," + X + "]}"
QZ_NEVER_LOADS = {"pdo.graded", "pdo.lift", "pdo.rankin", "pdo.invariants", "pdo.verify", "dataclasses"}


def loaded_by(argv: list[str]) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, json.dumps(argv)],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    return set(out["loaded"])


@pytest.mark.parametrize(
    "argv",
    [
        ["slash", X, "--weight", "2", "--matrix", "[[1,0],[2,1]]"],
        ["mul", SERIES, SERIES],
        ["inv", SERIES],
        ["act", SERIES, "--matrix", "[[2,1],[1,1]]"],
    ],
    ids=lambda argv: argv[0],
)
def test_qz_commands_load_no_graded_module(argv):
    loaded = loaded_by(argv)
    assert "pdo.series" in loaded
    assert not loaded & QZ_NEVER_LOADS


def test_g_table_loads_no_verify_module():
    loaded = loaded_by(["g-table", "--k", "2", "--nmax", "4"])
    assert "pdo.invariants" in loaded
    assert not loaded & {"pdo.verify", "dataclasses"}


def test_import_pdo_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pdo; print([m for m in sys.modules if m.startswith('pdo.')])"],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lazy_namespace_matches_the_defining_modules():
    assert len(pdo.__all__) == len(set(pdo.__all__)) == 58
    for name in pdo.__all__:
        module = importlib.import_module(f"pdo.{pdo._EXPORTS[name]}")
        value = getattr(pdo, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    namespace: dict = {}
    exec("from pdo import *", namespace)
    assert all(namespace[name] is getattr(pdo, name) for name in pdo.__all__)
    assert set(pdo.__all__) <= set(dir(pdo))
    with pytest.raises(AttributeError, match="nope"):
        pdo.nope
    assert not hasattr(pdo, "nope")
