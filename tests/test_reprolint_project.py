"""Whole-program analysis tests: ProjectContext, RL007–RL010, seeding.

Two layers:

* unit tests for :class:`repro.lint.project.ProjectContext` on a
  synthetic package (module naming, re-export resolution, inherited
  attribute-write sets, call-graph edges through ``functools.partial``
  and method references);
* the ISSUE acceptance seeding tests: deleting one key from a real
  component's ``state_dict()`` return makes ``python -m repro lint
  --rules=RL007 --strict`` fail with a finding naming the class and the
  attribute, and restoring it makes the run clean — demonstrated on a
  TLB organization, the Lite controller, and the page walker.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.engine import PassManager, iter_python_files
from repro.lint.project import ClassInfo, FunctionInfo, ModuleInfo, ProjectContext

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def build_project(root: Path, package: Path | None = None) -> ProjectContext:
    manager = PassManager([])
    contexts = []
    for file in iter_python_files(package or root):
        ctx = manager.parse_file(file, root)
        if ctx is not None:
            contexts.append(ctx)
    assert not manager.parse_failures, manager.parse_failures
    return ProjectContext(contexts)


# ---------------------------------------------------------------------------
# Synthetic package: precise resolution semantics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    root = tmp_path_factory.mktemp("proj")
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .impl import Base, helper\n"
        "from .sub import Child\n"
    )
    (pkg / "impl.py").write_text(
        "def helper(value):\n"
        "    return value + 1\n"
        "\n"
        "\n"
        "class Base:\n"
        "    def __init__(self):\n"
        "        self.base_count = 0\n"
        "\n"
        "    def bump(self):\n"
        "        self.base_count += 1\n"
    )
    (pkg / "sub.py").write_text(
        "import functools\n"
        "\n"
        "from .impl import Base, helper\n"
        "\n"
        "\n"
        "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "        self.child_items = []\n"
        "        self.engine = Base()\n"
        "\n"
        "    def tick(self):\n"
        "        self.child_items.append(1)\n"
        "\n"
        "    def defer(self):\n"
        "        callback = functools.partial(helper, 1)\n"
        "        return callback\n"
        "\n"
        "    def delegate(self):\n"
        "        self.engine.bump()\n"
        "\n"
        "\n"
        "def register(fn):\n"
        "    return fn\n"
        "\n"
        "\n"
        "def wire():\n"
        "    return register(Child.tick)\n"
    )
    return build_project(root)


class TestModuleIndex:
    def test_module_names_follow_init_markers(self, synthetic):
        assert {"pkg", "pkg.impl", "pkg.sub"} <= set(synthetic.modules)

    def test_resolve_direct_symbol(self, synthetic):
        resolved = synthetic.resolve("pkg.impl.Base")
        assert isinstance(resolved, ClassInfo)
        assert resolved.qualname == "pkg.impl.Base"

    def test_resolve_through_reexport(self, synthetic):
        resolved = synthetic.resolve("pkg.Base")
        assert isinstance(resolved, ClassInfo)
        assert resolved.qualname == "pkg.impl.Base"

    def test_resolve_reexported_function(self, synthetic):
        resolved = synthetic.resolve("pkg.helper")
        assert isinstance(resolved, FunctionInfo)
        assert resolved.qualname == "pkg.impl.helper"

    def test_resolve_module_itself(self, synthetic):
        resolved = synthetic.resolve("pkg.impl")
        assert isinstance(resolved, ModuleInfo)

    def test_unknown_symbol_is_none(self, synthetic):
        assert synthetic.resolve("pkg.impl.Missing") is None
        assert synthetic.resolve("os.path.join") is None


class TestClassTable:
    def test_bases_resolved_across_modules(self, synthetic):
        child = synthetic.resolve("pkg.sub.Child")
        assert [base.qualname for base in child.bases] == ["pkg.impl.Base"]
        assert [cls.name for cls in child.mro()] == ["Child", "Base"]

    def test_inherited_attribute_write_sets(self, synthetic):
        child = synthetic.resolve("pkg.sub.Child")
        writes = child.attribute_writes(include_bases=True)
        assert writes["base_count"] == {"Base.__init__", "Base.bump"}
        assert "Child.tick" in writes["child_items"]

    def test_own_writes_exclude_inherited(self, synthetic):
        child = synthetic.resolve("pkg.sub.Child")
        own = child.attribute_writes(include_bases=False)
        assert "base_count" not in own or own["base_count"] == {"Child.__init__"}

    def test_attribute_types_from_constructor(self, synthetic):
        child = synthetic.resolve("pkg.sub.Child")
        assert child.attribute_types()["engine"] == "Base"

    def test_resolve_method_walks_mro(self, synthetic):
        child = synthetic.resolve("pkg.sub.Child")
        owner, func = child.resolve_method("bump")
        assert owner.name == "Base"
        assert func.name == "bump"


class TestCallGraph:
    def test_edge_through_functools_partial(self, synthetic):
        assert "pkg.impl.helper" in synthetic.callees_of("pkg.sub.Child.defer")

    def test_edge_through_method_reference(self, synthetic):
        callees = synthetic.callees_of("pkg.sub.wire")
        assert "pkg.sub.register" in callees
        assert "pkg.sub.Child.tick" in callees

    def test_edge_through_attribute_type_dispatch(self, synthetic):
        assert "pkg.impl.Base.bump" in synthetic.callees_of("pkg.sub.Child.delegate")

    def test_edge_kinds(self, synthetic):
        defer = synthetic.resolve("pkg.sub.Child.defer")
        kinds = {edge.kind for edge in synthetic.callees(defer.node)}
        assert "partial" in kinds


# ---------------------------------------------------------------------------
# Real repo: the resilience package's re-export surface resolves
# ---------------------------------------------------------------------------


class TestRepoResolution:
    @pytest.fixture(scope="class")
    def project(self):
        return build_project(REPO_ROOT, PACKAGE)

    def test_resilience_reexports_resolve(self, project):
        auditor = project.resolve("repro.resilience.InvariantAuditor")
        assert isinstance(auditor, ClassInfo)
        assert auditor.qualname == "repro.resilience.auditor.InvariantAuditor"

    def test_hierarchy_serializes_through_indirection(self, project):
        """RL007's dynamic-dispatch chain: BaseHierarchy.state_dict reaches
        each subclass's all_structures() override, so the repo's hierarchy
        classes lint clean without suppressions (asserted by the strict CLI
        tests below); here we pin the call-graph edge itself."""
        hierarchy = project.resolve("repro.core.hierarchy.BaseHierarchy")
        assert hierarchy is not None
        owner, _ = hierarchy.resolve_method("state_dict")
        assert owner.name == "BaseHierarchy"

    def test_derived_attr_declarations_are_indexed(self):
        fixtures = TESTS_DIR / "lint_fixtures"
        project = build_project(fixtures, fixtures / "rl007_checkpoint.py")
        derived = project.resolve("rl007_checkpoint.DerivedCache")
        assert derived.derived_attrs == {"_total"}


# ---------------------------------------------------------------------------
# Seeding: delete a checkpoint key, RL007 must fail strict; restore → clean
# ---------------------------------------------------------------------------

#: (component, file, mutation, expected class, expected attribute)
SEEDING_CASES = [
    pytest.param(
        "repro/tlb/set_assoc.py",
        ('"pending": [self._pending_hits, self._pending_misses, self._pending_fills],', ""),
        "SetAssociativeTLB",
        "_pending_hits",
        id="tlb-organization",
    ),
    pytest.param(
        "repro/core/lite.py",
        ('"history": [record.to_json() for record in self.history],', ""),
        "LiteController",
        "history",
        id="lite-controller",
    ),
    pytest.param(
        "repro/mmu/walker.py",
        ('return {"stats": self.stats.state_dict()}', "return {}"),
        "PageWalker",
        "stats",
        id="page-walker",
    ),
]


def run_lint_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            # Keep the caller's choice, so the run leaves no bytecode in src/ when asked.
            **{k: v for k, v in os.environ.items() if k == "PYTHONDONTWRITEBYTECODE"},
        },
    )


class TestCheckpointSeeding:
    @pytest.fixture(scope="class")
    def tree(self, tmp_path_factory):
        """A pristine copy of the package, linted once to prove cleanliness."""
        root = tmp_path_factory.mktemp("seeded")
        shutil.copytree(PACKAGE, root / "repro")
        clean = run_lint_cli("--rules=RL007", "--strict", "repro", cwd=root)
        assert clean.returncode == 0, clean.stdout + clean.stderr
        return root

    @pytest.mark.parametrize("relpath, mutation, cls, attr", SEEDING_CASES)
    def test_deleted_key_fails_then_restores_clean(
        self, tree, relpath, mutation, cls, attr
    ):
        target = tree / relpath
        original = target.read_text()
        old, new = mutation
        assert original.count(old) == 1, f"seeding anchor drifted in {relpath}"
        try:
            target.write_text(original.replace(old, new))
            broken = run_lint_cli("--rules=RL007", "--strict", "repro", cwd=tree)
            assert broken.returncode == 1, broken.stdout + broken.stderr
            flagged = [
                line
                for line in broken.stdout.splitlines()
                if "RL007" in line and cls in line and attr in line
            ]
            assert flagged, broken.stdout
        finally:
            target.write_text(original)
        restored = run_lint_cli("--rules=RL007", "--strict", "repro", cwd=tree)
        assert restored.returncode == 0, restored.stdout + restored.stderr


# ---------------------------------------------------------------------------
# Project-scoped fingerprints: baseline entries survive moving a symbol
# ---------------------------------------------------------------------------


class TestProjectFingerprints:
    def test_rl007_fingerprint_keys_on_symbol_not_path(self, tmp_path):
        """Same module, different on-disk location: the baseline holds.

        Project findings key on the qualified symbol, so a baseline
        written at one lint root still matches after the package is
        relocated (vendored deeper, linted from another cwd) — exactly
        where path-keyed fingerprints would all go stale.
        """
        from repro.lint import Baseline, lint_paths

        source = (
            "class Drifty:\n"
            "    def __init__(self):\n"
            "        self.seen = 0\n"
            "    def touch(self):\n"
            "        self.seen += 1\n"
            "    def state_dict(self):\n"
            "        return {}\n"
            "    def load_state_dict(self, state):\n"
            "        self.seen = 0\n"
        )
        shallow = tmp_path / "a" / "pkg"
        shallow.mkdir(parents=True)
        (shallow / "__init__.py").write_text("")
        (shallow / "mod.py").write_text(source)
        first = lint_paths([shallow], root=tmp_path / "a")
        rl007 = [f for f in first if f.rule == "RL007"]
        assert rl007 and all(f.symbol == "pkg.mod.Drifty" for f in rl007)
        baseline = Baseline.from_findings(first)

        deep = tmp_path / "b" / "vendored" / "pkg"
        deep.mkdir(parents=True)
        (deep / "__init__.py").write_text("")
        (deep / "mod.py").write_text(source)
        moved = lint_paths([deep], root=tmp_path / "b")
        assert {f.path for f in moved} != {f.path for f in first}
        new, baselined = baseline.partition(moved)
        assert new == []
        assert len(baselined) == len(moved)
