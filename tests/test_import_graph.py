"""The import graph: a process loads only the layers it runs.

Package ``__init__`` files are docstring-only, so importing one module
of a subpackage never drags in its siblings.  The fresh-process checks
pin the start-up cost that matters in practice: a spawn worker of the
campaign pool or of the DAG watchdog, and the ``keddah`` CLI before it
dispatches a subcommand, must not load the modelling stack (scipy) or
the evaluation harness.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE_INITS = sorted((SRC / "repro").glob("*/__init__.py"))

HEAVY_MODULES = ("scipy.stats", "repro.modeling.model",
                 "repro.experiments.pipelines", "repro.experiments.figures")


def test_every_subpackage_is_covered():
    # Guards the parametrized check below against passing vacuously.
    assert len(PACKAGE_INITS) >= 14


@pytest.mark.parametrize("init", PACKAGE_INITS,
                         ids=[path.parent.name for path in PACKAGE_INITS])
def test_package_init_is_docstring_only(init):
    tree = ast.parse(init.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree), f"{init} lost its module docstring"
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
            f"{init}:{node.lineno} imports; import from the defining "
            "module instead")
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        assert not any(isinstance(target, ast.Name)
                       and target.id == "__all__" for target in targets), (
            f"{init}:{node.lineno} defines __all__")


@pytest.mark.parametrize("module", ["repro.experiments.runner",
                                    "repro.experiments.supervision",
                                    "repro.cli"])
def test_module_loads_no_modelling_or_harness(module):
    code = (f"import json, sys\nimport {module}\n"
            f"print(json.dumps([name for name in {HEAVY_MODULES!r} "
            "if name in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         timeout=120).stdout
    assert json.loads(out) == []
