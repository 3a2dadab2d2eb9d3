"""The package namespace and the README's quick start."""

import contextlib
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import tsdyn

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_resolvable_names_and_no_modules():
    assert len(set(tsdyn.__all__)) == len(tsdyn.__all__)
    for name in tsdyn.__all__:
        assert not isinstance(getattr(tsdyn, name), types.ModuleType), name


#: The public surface.  Adding or removing a name is a deliberate edit here.
PUBLIC_NAMES = [
    "BoundsPair", "BracketViolation", "ConfigError", "ConvergenceVerdict",
    "CriterionNotSatisfied", "CriterionReport", "DEFAULT_SEED",
    "DimensionMismatch", "DirichletProblem", "DomainViolation",
    "EnvelopeViolation", "ExpressionSyntaxError", "ExpressionTree",
    "GridFunction", "LipschitzReport", "Nonlinearity", "QUANTUM_FAMILY_DEPTHS",
    "SampleReport", "ScalingReport", "SolveConfig", "SolveReport", "Status",
    "Strategy", "SupportMismatch", "TimeScale", "TsdynError",
    "UNIFORM_FAMILY_SIZES", "UnknownVariable", "Verdict", "VerificationReport",
    "affine_interpolant", "apply_green_operator", "check_lipschitz_bound",
    "check_monotone_in_state", "check_scaling_exponents",
    "compute_envelope", "construct_bounds",
    "construct_lower", "criterion_necessary", "criterion_sufficient",
    "delta_derivative", "delta_integral", "delta_second", "envelope_weight",
    "family_quadrature", "from_points", "green_apply", "kernel_lower_weight",
    "parse_expression", "quantum", "quantum_family",
    "residual_norm", "rhs_matrix", "same_realization", "sigma_shift", "solve",
    "uniform", "uniform_family", "verify_lower", "verify_upper",
]


def test_all_is_the_pinned_public_surface():
    assert len(PUBLIC_NAMES) == 60
    assert sorted(tsdyn.__all__) == PUBLIC_NAMES


def test_every_error_class_is_exported():
    """Each class ``tsdyn.errors`` defines is a public name, so no error a
    caller cannot catch by name lives on in the module."""
    classes = {name for name, value in vars(tsdyn.errors).items()
               if isinstance(value, type) and issubclass(value, tsdyn.TsdynError)}
    assert len(classes) == 10
    assert classes <= set(tsdyn.__all__)


def test_only_the_expression_module_knows_the_tree_nodes():
    """Every walk over an expression tree lives in ``expressions.py``; other
    modules ask the tree, so none names a node class."""
    nodes = re.compile(r"\b(BinOp|Const|Neg|StateVar|TimeVar)\b")
    package = Path(tsdyn.__file__).resolve().parent
    naming = [path.name for path in sorted(package.glob("*.py"))
              if nodes.search(path.read_text())]
    assert naming == ["expressions.py"]


def test_import_loads_no_test_or_heavy_modules():
    """Importing the package and its CLI stays cheap: beyond numpy it loads
    only small standard-library modules, and none of these."""
    heavy = ("scipy", "hypothesis", "fractions", "decimal", "logging")
    code = ("import sys, tsdyn, tsdyn.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    src = str(Path(tsdyn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_readme_quick_start_prints_what_its_comments_say():
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    code = block.group(1)
    # each print's output is the comment on its line or on the line below
    expected = [inline or below for inline, below in
                re.findall(r"^print\(.*\)(?:\s+# (.+)|\n# (.+))$", code, re.M)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 2
    assert printed[0] == expected[0]
    # the status and the iteration count exactly; the defect and the
    # residual sit at the roundoff floor, which the comment only abbreviates
    assert printed[1].split()[:2] == expected[1].split()[:2]
