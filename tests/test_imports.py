"""Import-path tests: one path per name, and documented imports resolve.

The packages under ``src/repro`` hold only their docstrings, so each
name is imported from the module that defines it.  These tests keep it
that way: no package ``__init__`` imports anything, importing the
simulator and the sweep module loads none of the tooling no run needs,
and every import shown in a fenced ``python`` block of README.md or
docs/*.md still resolves.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"

#: Modules a simulation or an unsupervised sweep never runs.  The last
#: two load when a supervised sweep starts its worker pool.
NOT_LOADED_BY_A_RUN = (
    "repro.resilience.fuzz",
    "repro.resilience.minimize",
    "repro.resilience.bisect",
    "repro.core.multiprocess",
    "repro.analysis.tracestats",
    "repro.analysis.export",
    "repro.analysis.report",
    "repro.tlb.replacement",
    "repro.energy.static",
    "repro.resilience.supervisor",
    "repro.resilience.faults",
)


def test_package_inits_import_nothing():
    importing = []
    for init in sorted(PACKAGE.rglob("__init__.py")):
        tree = ast.parse(init.read_text(), filename=str(init))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                importing.append(f"{init.relative_to(PACKAGE)}:{node.lineno}")
    assert not importing, f"package __init__ files re-export names: {importing}"


def test_simulator_and_sweep_load_no_tooling():
    probe = (
        "import sys\n"
        "import repro.core.simulator, repro.resilience.sweep\n"
        "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={
            **os.environ,
            "PYTHONPATH": str(PACKAGE.parent),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    loaded = set(completed.stdout.split())
    assert "repro.core.simulator" in loaded and "repro.resilience.sweep" in loaded
    assert not loaded & set(NOT_LOADED_BY_A_RUN)
    assert not {name for name in loaded if name.split(".")[:2] == ["repro", "lint"]}


def _documented_imports():
    fence = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
    for path in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        text = path.read_text()
        for block in fence.finditer(text):
            first_line = text.count("\n", 0, block.start()) + 2
            try:
                tree = ast.parse(block.group(1))
            except SyntaxError:
                # A fragment (an ``except`` clause shown alone) holds no
                # imports; one that did would go unchecked here.
                assert not re.search(r"^\s*(from|import)\s", block.group(1), re.M), (
                    f"{path.name}:{first_line}: a block that does not parse imports"
                )
                continue
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    line = first_line + node.lineno - 1
                    yield pytest.param(ast.unparse(node), id=f"{path.name}:{line}")


@pytest.mark.parametrize("statement", list(_documented_imports()))
def test_documented_import_resolves(statement):
    exec(compile(statement, "<docs>", "exec"), {})
