"""The import boundary: the exact decision layer and its commands load no
numpy, and the numerical names still resolve through the package."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starspec

ROOT = Path(__file__).resolve().parents[1]

# Every name `starspec` exports, by home module.
EXPORTS = {
    "graph": ("GVec", "GraphClass", "GraphError", "StarGraph", "bilinear_form",
              "build_star", "classify", "tits_form", "unit_vector"),
    "coxeter": ("CoxeterDomainError", "DimCharPair", "ReductionSchedule",
                "char_transport_up", "coxeter_char", "coxeter_dim",
                "coxeter_power_matrix_e6", "coxeter_power_table_e6",
                "elementary_coxeter_matrix", "reduction_schedule"),
    "roots": ("coxeter_series", "fundamental_roots", "is_root"),
    "transfer": ("GeneralizedDimension", "SpectralInstance", "TransferError",
                 "char_from_chi", "chi_from_char", "dim_from_n", "make_instance",
                 "md_matrix", "mf_matrix", "n_from_dim", "nondegenerate_dim"),
    "feasibility": ("FAMILIES", "FAMILY_INNER", "FAMILY_LEAF", "FAMILY_ROOT",
                    "FeasibilityError", "FeasibilityVerdict", "Hyperplane",
                    "closed_form_e6", "horn_check_e6", "hyperplane",
                    "iterative_feasible", "on_hyperplane", "solve",
                    "trajectory_dim"),
    "reps": ("AlgebraRep", "ConstructionError", "GraphRep", "RepError",
             "build_graph_rep", "build_hyperplane_rep", "canonicalize",
             "to_algebra_rep"),
    "verify": ("VerificationReport", "commutant_dimension", "verify_algebra_rep",
               "verify_graph_rep"),
}

# Runs every golden command and --version through cli.main in a fresh
# interpreter, checks each stdout against its golden file and each exit
# status against the listed one, and fails if numpy was loaded on the way.
DECIDE_WITHOUT_NUMPY = """
import contextlib, io, sys
from pathlib import Path

import starspec, starspec.io, starspec.cli

golden = Path("tests/data/golden")
for line in (golden / "commands.txt").read_text().splitlines():
    name, status, *argv = line.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = starspec.cli.main(argv)
    assert code == int(status), (name, code)
    assert out.getvalue() == (golden / f"{name}.txt").read_text(), name
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        starspec.cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert out.getvalue() == starspec.__version__ + "\\n", out.getvalue()
loaded = sorted(m for m in sys.modules
                if m == "numpy" or m in ("starspec.reps", "starspec.verify"))
assert not loaded, loaded
"""


def run_fresh(script: str):
    """Run ``script`` in a fresh interpreter on the repository's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_decision_commands_load_no_numpy():
    proc = run_fresh(DECIDE_WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr


# The records are NamedTuples, so no module of the package imports
# `dataclasses`, whose import pulls in `inspect`.  numpy imports `inspect`
# itself, so once the numerical layer is loaded only `dataclasses` is
# checked.
START_UP_WITHOUT_DATACLASSES = """
import sys

import starspec, starspec.cli

loaded = sorted({"dataclasses", "inspect"} & sys.modules.keys())
assert not loaded, loaded
import starspec.reps, starspec.verify

assert "dataclasses" not in sys.modules
"""


def test_start_up_loads_no_dataclasses():
    proc = run_fresh(START_UP_WITHOUT_DATACLASSES)
    assert proc.returncode == 0, proc.stderr


# Builds a Horn representation and a reflection representation with
# `construct -o`, then reads each file back with `verify --rep`, which
# verifies it and computes its commutant, all in a fresh interpreter; fails
# if numpy.random was loaded on the way.
CONSTRUCT_WITHOUT_NUMPY_RANDOM = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

import starspec.cli

with tempfile.TemporaryDirectory() as tmp:
    horn = Path(tmp, "horn.json")
    horn.write_text(json.dumps({"branches": [[5, 2], [4, 1], [6, 3]], "gamma": 7}))
    routes = []
    for inst in (horn, Path("tests/data/e8_feasible.json")):
        rep = Path(tmp, f"{inst.stem}_rep.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert starspec.cli.main(["construct", "--instance", str(inst),
                                      "-o", str(rep)]) == 0
        routes.append(json.loads(rep.read_text())["metadata"]["route"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert starspec.cli.main(["verify", "--rep", str(rep)]) == 0
        report = json.loads(out.getvalue())
        assert report["commutant_dimension"] == 1, report
assert routes == ["hyperplane_optimizer", "reflection_functors"], routes
assert "numpy.random" not in sys.modules
"""


def test_constructions_load_no_numpy_random():
    proc = run_fresh(CONSTRUCT_WITHOUT_NUMPY_RANDOM)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names
])
def test_exported_name_is_the_submodule_object(module, name):
    home = importlib.import_module(f"starspec.{module}")
    assert getattr(starspec, name) is getattr(home, name)
    scope: dict = {}
    exec(f"from starspec import {name}", scope)
    assert scope[name] is getattr(home, name)


@pytest.mark.parametrize("module", ["reps", "verify"])
def test_numerical_submodule_is_a_package_attribute(module):
    assert getattr(starspec, module) is importlib.import_module(f"starspec.{module}")


def test_numerical_name_follows_a_rebinding(monkeypatch):
    """The package reads a numerical name from its module each time, so a
    rebinding there is what the package returns."""
    from starspec import reps

    def replacement(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(reps, "build_graph_rep", replacement)
    assert starspec.build_graph_rep is replacement


def test_every_listed_name_resolves():
    """Every name `dir(starspec)` lists resolves through the package, and
    the numerical table holds exactly the exports of reps and verify and
    the two module names: a stale entry fails here, not when first read."""
    for name in dir(starspec):
        getattr(starspec, name)
    assert starspec._NUMERICAL == {
        name: module for module in ("reps", "verify")
        for name in (module, *EXPORTS[module])
    }


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        starspec.no_such_name
    assert "build_graph_rep" in dir(starspec)
