"""Tests for the in-repo stdlib-ast static linter (tools/static_lint.py).

Covers each rule on synthetic snippets and trees, the exemptions that keep
the unused-import rule honest, and the cleanliness gate: the shipped source
tree must produce zero findings.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "static_lint", REPO / "tools" / "static_lint.py"
)
static_lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(static_lint)


def _lint_snippet(tmp_path, source, name="snippet.py"):
    path = tmp_path / name
    path.write_text(source)
    return static_lint.lint_file(path)


class TestUnusedImports:
    def test_flags_unused_import(self, tmp_path):
        findings = _lint_snippet(tmp_path, "import os\nprint('hi')\n")
        assert len(findings) == 1
        assert "L001" in findings[0]
        assert "'os'" in findings[0]

    def test_used_import_clean(self, tmp_path):
        assert _lint_snippet(tmp_path, "import os\nprint(os.sep)\n") == []

    def test_from_import_alias(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "from os import path as p\nprint('hi')\n"
        )
        assert len(findings) == 1 and "'p'" in findings[0]

    def test_attribute_chain_counts_as_use(self, tmp_path):
        assert (
            _lint_snippet(tmp_path, "import os\nx = os.path.sep\n") == []
        )

    def test_init_py_exempt(self, tmp_path):
        assert (
            _lint_snippet(tmp_path, "import os\n", name="__init__.py") == []
        )

    def test_dunder_all_exempt(self, tmp_path):
        source = "from os import sep\n__all__ = ['sep']\n"
        assert _lint_snippet(tmp_path, source) == []

    def test_future_import_exempt(self, tmp_path):
        assert (
            _lint_snippet(
                tmp_path, "from __future__ import annotations\nx = 1\n"
            )
            == []
        )

    def test_type_checking_block_exempt(self, tmp_path):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from os import sep\n"
            'def f(x: "sep") -> None: ...\n'
        )
        assert _lint_snippet(tmp_path, source) == []


class TestBareExcept:
    def test_flags_bare_except(self, tmp_path):
        source = "try:\n    pass\nexcept:\n    pass\n"
        findings = _lint_snippet(tmp_path, source)
        assert len(findings) == 1 and "L002" in findings[0]

    def test_typed_except_clean(self, tmp_path):
        source = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert _lint_snippet(tmp_path, source) == []


class TestMutableDefaults:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "list()", "dict()", "[x for x in ()]"]
    )
    def test_flags_mutable_default(self, tmp_path, default):
        findings = _lint_snippet(
            tmp_path, f"def f(a, b={default}):\n    return b\n"
        )
        assert len(findings) == 1 and "L003" in findings[0]

    def test_kwonly_default_also_checked(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "def f(*, b=[]):\n    return b\n"
        )
        assert len(findings) == 1 and "L003" in findings[0]

    def test_none_default_clean(self, tmp_path):
        assert (
            _lint_snippet(tmp_path, "def f(b=None):\n    return b\n") == []
        )

    def test_tuple_default_clean(self, tmp_path):
        assert (
            _lint_snippet(tmp_path, "def f(b=()):\n    return b\n") == []
        )


class TestDeadPublicNames:
    @pytest.fixture
    def tree(self, tmp_path):
        """A source root with one live, one dead and one private name, a
        class that only refers to itself, and a caller under bench/."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "from .lib import dead, live, bench_only, SelfRef\n"
        )
        (package / "lib.py").write_text(
            "__all__ = ['dead', 'live']\n"
            "def live():\n    return _private()\n"
            "def dead():\n    return 1\n"
            "def bench_only():\n    return 2\n"
            "def _private():\n    return 3\n"
            "class SelfRef:\n"
            "    def copy(self):\n        return SelfRef()\n"
        )
        (package / "user.py").write_text(
            "from .lib import live\n_x = live()\n"
        )
        (tmp_path / "bench").mkdir()
        (tmp_path / "bench" / "run.py").write_text(
            "from repro import lib\nlib.bench_only()\n"
        )
        return tmp_path / "src"

    def test_flags_names_only_reexported_or_self_referenced(self, tree):
        findings = static_lint.lint_paths([tree])
        assert all("L004" in finding for finding in findings), findings
        flagged = sorted(f.split("'")[1] for f in findings)
        assert flagged == ["SelfRef", "dead"]

    def test_allowlisted_name_is_clean(self, tree, monkeypatch):
        monkeypatch.setitem(
            static_lint.DEAD_NAME_ALLOWLIST, "lib.py:dead", "kept for the test"
        )
        monkeypatch.setitem(
            static_lint.DEAD_NAME_ALLOWLIST, "lib.py:SelfRef", "kept for the test"
        )
        assert static_lint.lint_paths([tree]) == []

    def test_every_allowlist_entry_carries_a_reason(self):
        for key, reason in static_lint.DEAD_NAME_ALLOWLIST.items():
            assert ":" in key and reason.strip(), key


class TestEnvironmentSwitches:
    def test_flags_undeclared_repro_variables_only(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "_config.py").write_text(
            "import os\n"
            "_ON = os.environ.get('REPRO_COUNTERS', '1') != '0'\n"
            "_RING = None if os.environ['REPRO_RING'] == '0' else 1\n"
            "_DIR = os.environ.get('REPRO_STATE_DIR') or '.repro'\n"
            "_HOME = os.getenv('HOME')\n"
            "_TEXT = 'REPRO_OUTPUT'  # a literal nobody reads from the env\n"
        )
        findings = static_lint.lint_paths([tmp_path / "src"])
        assert all("L005" in finding for finding in findings), findings
        flagged = sorted(f.split("'")[1] for f in findings)
        assert flagged == ["REPRO_COUNTERS", "REPRO_RING"]

    def test_allowlist_holds_deployment_paths_with_reasons(self):
        assert sorted(static_lint.ENV_ALLOWLIST) == [
            "REPRO_KERNEL_CACHE", "REPRO_NATIVE_CXX", "REPRO_STATE_DIR",
        ]
        assert all(r.strip() for r in static_lint.ENV_ALLOWLIST.values())


class TestBucketSorts:
    def test_flags_np_unique_inside_buckets_only(self, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "buckets").mkdir(parents=True)
        (package / "runtime").mkdir()
        for directory in (package, package / "buckets", package / "runtime"):
            (directory / "__init__.py").write_text("")
        (package / "buckets" / "_queue.py").write_text(
            "import numpy as np\n"
            "from .interface import sorted_distinct\n"
            "def _pop(chunks):\n"
            "    return np.unique(np.concatenate(chunks))\n"
            "def _pop_sort_free(chunks):\n"
            "    return sorted_distinct(np.concatenate(chunks))\n"
        )
        (package / "runtime" / "_histogram.py").write_text(
            "import numpy as np\n"
            "def _counts(targets):\n"
            "    return np.unique(targets, return_counts=True)\n"
        )
        findings = static_lint.lint_paths([tmp_path / "src"])
        assert len(findings) == 1, findings
        assert "_queue.py:4:" in findings[0] and "L006" in findings[0]
        assert "sorted_distinct / split_by_order" in findings[0]


class TestAlgorithmQueues:
    @pytest.fixture
    def package(self, tmp_path):
        package = tmp_path / "src" / "repro"
        for directory in ("algorithms", "buckets", "backend"):
            (package / directory).mkdir(parents=True)
            (package / directory / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        return package

    def test_flags_queue_imports_outside_the_owners(self, package):
        (package / "algorithms" / "_peel.py").write_text(
            "from ..buckets.lazy import LazyBucketQueue\n"
            "from .. import buckets\n"
            "import repro.buckets.eager\n"
            "_QUEUES = (LazyBucketQueue, buckets, repro.buckets.eager)\n"
        )
        findings = static_lint.lint_paths([package.parent])
        assert [f.split(":")[1] for f in findings] == ["1", "2", "3"], findings
        assert all("L007" in f and "lang/programs.py" in f for f in findings)

    def test_no_algorithm_module_owns_a_queue_or_a_loop(self, package):
        (package / "algorithms" / "common.py").write_text(
            "from ..buckets.lazy import LazyBucketQueue\n"
            "from ..core.executors import run_eager\n"
            "from ..core import run_eager as drive\n"
            "_Q = (LazyBucketQueue, run_eager, drive)\n"
        )
        findings = static_lint.lint_paths([package.parent])
        assert [f.split(":")[1] for f in findings] == ["1", "2", "3"], findings
        assert all("algorithms/common.py" in f and "L007" in f for f in findings)

    def test_owners_and_compiled_wrappers_are_clean(self, package):
        # The queue owners are the runtime's: the backend builds queues.
        (package / "backend" / "runtime_support.py").write_text(
            "from ..buckets.lazy import LazyBucketQueue\n_Q = LazyBucketQueue\n"
        )
        (package / "algorithms" / "_wrapper.py").write_text(
            "from ..backend.program import compile_program\n"
            "from ..backend.runtime_support import _Q\n"
            "_RUN = (compile_program, _Q)\n"
        )
        assert static_lint.lint_paths([package.parent]) == []


class TestMidendCycles:
    @pytest.fixture
    def package(self, tmp_path):
        package = tmp_path / "src" / "repro"
        analysis = package / "midend" / "analysis"
        analysis.mkdir(parents=True)
        for directory in (package, package / "midend", analysis):
            (directory / "__init__.py").write_text("")
        return package

    def test_flags_a_cycle_hidden_in_a_function_local_import(self, package):
        (package / "midend" / "analysis" / "summary.py").write_text(
            "from .proofs import prove\n_P = prove\n"
        )
        (package / "midend" / "analysis" / "proofs.py").write_text(
            "def prove():\n"
            "    from .summary import _P\n"
            "    return _P\n"
        )
        findings = static_lint.lint_paths([package.parent])
        assert len(findings) == 1, findings
        assert "L008" in findings[0] and "proofs.py:2:" in findings[0]
        assert (
            "repro.midend.analysis.proofs -> repro.midend.analysis.summary"
            " -> repro.midend.analysis.proofs" in findings[0]
        )

    def test_type_checking_imports_and_one_way_edges_are_clean(self, package):
        (package / "midend" / "plan.py").write_text(
            "from .analysis import facts\n_F = facts\n"
        )
        (package / "midend" / "analysis" / "facts.py").write_text(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from ..plan import _F\n"
        )
        assert static_lint.lint_paths([package.parent]) == []


class TestBackendAnalyses:
    def test_flags_analyses_inside_backend_only(self, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "backend" / "native").mkdir(parents=True)
        (package / "midend").mkdir()
        for directory in ("", "backend", "backend/native", "midend"):
            (package / directory / "__init__.py").write_text("")
        (package / "backend" / "_emit.py").write_text(
            "from ..lang import ast_nodes as ast\n"
            "from ..midend.analysis import races\n"
            "def _emit(plan, main):\n"
            "    nodes = list(ast.walk(main))\n"
            "    report = races.classify_races(plan.facts.loop_udf, plan.schedule)\n"
            "    return nodes, report, plan.races\n"
        )
        (package / "backend" / "native" / "_kernel.py").write_text(
            "from ...midend.analysis.vectorize import analyze_vectorization\n"
            "def _kernels(plan):\n"
            "    return analyze_vectorization(plan.facts, plan.schedule)\n"
        )
        (package / "midend" / "_planner.py").write_text(
            "import ast\n"
            "from .analysis.races import classify_races\n"
            "def _plan(tree, udf, schedule):\n"
            "    return list(ast.walk(tree)), classify_races(udf, schedule)\n"
        )
        findings = sorted(static_lint.lint_paths([tmp_path / "src"]))
        assert len(findings) == 3, findings
        assert all("L009" in f and "lowering.py" in f for f in findings)
        assert "_emit.py:4:" in findings[0] and "calls walk" in findings[0]
        assert "_emit.py:5:" in findings[1] and "calls classify_races" in findings[1]
        assert "_kernel.py:3:" in findings[2] and "calls analyze_vectorization" in findings[2]


class TestDriver:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = _lint_snippet(tmp_path, "def f(:\n")
        assert len(findings) == 1 and "L000" in findings[0]

    def test_finding_format_matches_problem_matcher(self, tmp_path):
        # file:line:col: error[CODE]: message — what the GitHub Actions
        # problem matcher (and repro lint itself) parse.
        import re

        (finding,) = _lint_snippet(tmp_path, "import os\n")
        assert re.match(
            r"^.+:\d+:\d+: error\[L\d{3}\]: .+$", finding
        ), finding

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert static_lint.main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import os\n")
        assert static_lint.main([str(dirty)]) == 1
        assert static_lint.main([str(tmp_path / "missing.py")]) == 2
        capsys.readouterr()


class TestRepoIsClean:
    @pytest.mark.parametrize("tree", ["src", "tools"])
    def test_tree_has_no_findings(self, tree):
        findings = static_lint.lint_paths([REPO / tree])
        assert findings == [], "\n".join(findings)
