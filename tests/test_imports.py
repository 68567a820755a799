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

# Every name `starspec` exported while it imported reps and verify eagerly,
# by home module.
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
             "from_algebra_rep", "reflect_rep", "simple_rep", "to_algebra_rep"),
    "verify": ("VerificationReport", "commutant_dimension", "verify_algebra_rep",
               "verify_graph_rep"),
}

# Runs every golden command and --version through cli.main in a fresh
# interpreter, checks each stdout against its golden file, and fails if
# numpy was loaded on the way.
DECIDE_WITHOUT_NUMPY = """
import contextlib, io, sys
from pathlib import Path

import starspec, starspec.io, starspec.cli

golden = Path("tests/data/golden")
for line in (golden / "commands.txt").read_text().splitlines():
    name, *argv = line.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = starspec.cli.main(argv)
    assert code == 0, (name, code)
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


def test_decision_commands_load_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", DECIDE_WITHOUT_NUMPY], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
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


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        starspec.no_such_name
    assert "build_graph_rep" in dir(starspec)
