#!/usr/bin/env python3
"""A dependency-free static linter for the repro source tree.

The container deliberately ships no third-party lint toolchain, so CI runs
this stdlib-``ast`` checker instead.  Nine rule families, chosen because
each has bitten real compiler code:

- ``L001`` unused import — an import whose bound name is never referenced
  again in the module.  ``__init__.py`` files are exempt (re-export
  surface), as are names listed in ``__all__``, ``__future__`` imports,
  and imports under ``if TYPE_CHECKING:`` (their uses are quoted
  annotations the AST sees as plain strings).
- ``L002`` bare ``except:`` — swallows ``KeyboardInterrupt`` and
  ``SystemExit``; catch ``Exception`` (or something narrower) instead.
- ``L003`` mutable default argument — a ``list``/``dict``/``set`` literal
  or constructor call as a parameter default is shared across calls.
- ``L004`` dead public name — a public top-level function or class of the
  ``repro`` package that nothing references: not its own module (outside
  the definition itself), not another module under the linted source root
  (``__init__.py`` re-exports do not count), and not ``bench/``,
  ``benchmarks/``, ``examples/`` or ``tools/`` next to it.  Code only tests
  call is how ``run_lazy_histogram``, ``AtomicOps`` and ``VertexVector``
  outlived their last caller.  Runs whenever a linted path contains a
  ``repro/`` package; :data:`DEAD_NAME_ALLOWLIST` names what stays and why.
- ``L005`` undeclared environment switch — a ``REPRO_*`` variable read
  from ``os.environ`` inside the ``repro`` package that is not in
  :data:`ENV_ALLOWLIST`.  The allowlist holds deployment paths only: an
  environment variable that turns a subsystem off is an option nobody
  tests (the metrics and flight-recorder off-switches were never set by
  any caller, CI job or benchmark before they were deleted).  Runs
  alongside L004.
- ``L006`` ``np.unique`` in ``repro/buckets/`` — the queues' vertex sets
  are distinct by construction (dedup flags, ``scatter_extremum``'s
  return) and sorted once, at pop; a hash-and-sort per round is how the
  bucket layer came to cost more than the relax kernels.  Runs alongside
  L004.
- ``L007`` ``repro.buckets`` or ``repro.core.executors`` imported by an
  algorithm — a module under ``repro/algorithms/`` that builds its own
  queue or drives an ordered loop is a second, hand-written copy of a DSL
  program; k-core, SetCover and then the shortest-path family each had one
  beside ``lang/programs.py`` until they became wrappers over the compiled
  program.  Runs alongside L004.
- ``L008`` import cycle inside ``repro.midend`` — counting function-local
  imports, which is how two cycles hid there (the effect analysis and its
  monotonicity proofs; the diagnostics engine and the planner) while each
  analysis re-derived the facts the others had.  An import names the module
  it imports; ``if TYPE_CHECKING:`` imports never run and do not count.
  Runs alongside L004.
- ``L009`` a backend that analyses the program — a call of ``ast.walk``,
  ``classify_races`` or ``analyze_vectorization`` under ``repro/backend/``.
  The planner answers every question the emitters ask; while each backend
  walked the AST and classified the loop's UDF on its own, a racy UDF
  outside the recognized loop ran unreported on the interpreter and got an
  unseeded CAS in C++.  Runs alongside L004.

Findings print as ``file:line:col: error[CODE]: message`` — the same shape
``repro lint`` uses, so the GitHub Actions problem matcher annotates both.

Usage::

    python tools/static_lint.py src tests tools
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

MUTABLE_CALLS = {"list", "dict", "set"}

# Sibling directories of the source root whose code counts as a caller.
REFERENCE_DIRS = ("bench", "benchmarks", "examples", "tools")

_USER_INPUT = "user-facing input: callers build or load their graphs with it"
_TEST_SEAM = "test seam: lets a test swap or reset process-wide state"

# L004 exemptions, ``<path under repro/>:<name>`` -> the reason it stays.
DEAD_NAME_ALLOWLIST = {
    "graph/builder.py:from_edges": _USER_INPUT,
    "graph/generators.py:erdos_renyi": _USER_INPUT,
    "graph/generators.py:random_geometric": _USER_INPUT,
    "graph/generators.py:path_graph": _USER_INPUT,
    "graph/generators.py:cycle_graph": _USER_INPUT,
    "graph/generators.py:star_graph": _USER_INPUT,
    "graph/generators.py:complete_graph": _USER_INPUT,
    "graph/io.py:load_dimacs": _USER_INPUT,
    "graph/io.py:save_dimacs": _USER_INPUT,
    "algorithms/widest_path.py:widest_path": (
        "library entry point of the updatePriorityMax extension; serve and "
        "the CLI run the same WIDEST program through IncrementalSession"
    ),
    "algorithms/widest_path.py:widest_path_reference": (
        "reference oracle the widest-path tests compare against"
    ),
    "backend/extern_library.py:astar_externs": (
        "extern bindings a caller passes to Program.run for the A* program"
    ),
    "obs/exporters.py:load_chrome_trace": (
        "documented way to validate a trace file `repro trace` wrote"
    ),
    "obs/metrics.py:reset_metrics": _TEST_SEAM,
    "obs/metrics.py:deterministic_snapshot": (
        "the scheduling-independent view the metrics determinism tests pin"
    ),
    "obs/tracer.py:set_ring": _TEST_SEAM,
    "backend/native/toolchain.py:reset_toolchain_cache": _TEST_SEAM,
    "serve/server.py:start_in_thread": (
        "in-process server harness for the serve tests (bench uses a subprocess)"
    ),
}

# L005: the only ``REPRO_*`` variables the package may read, each a
# deployment path (where something lives), never a behaviour switch.
ENV_ALLOWLIST = {
    "REPRO_KERNEL_CACHE": "directory the compiled native kernels are cached in",
    "REPRO_STATE_DIR": "directory crash dumps (last_run.json) are written to",
    "REPRO_NATIVE_CXX": "path of the C++ compiler that builds native kernels",
}
_ENV_NAME = re.compile(r"REPRO_[A-Z_]+")

# L008: the package whose modules may not import each other in a cycle.
_ACYCLIC_PACKAGE = ("repro", "midend")

# L009: the analyses only the planner may run; the backends render its plan.
_PLANNER_ANALYSES = ("classify_races", "analyze_vectorization")

# L007: the packages that build bucket queues and drive ordered loops.  No
# ``algorithms/`` module may import them: every ordered algorithm is a
# wrapper over its compiled DSL program.
_LOOP_MODULES = (["repro", "buckets"], ["repro", "core"])


def _finding(path: Path, node: ast.AST, code: str, message: str) -> str:
    line = getattr(node, "lineno", 1)
    column = getattr(node, "col_offset", 0) + 1
    return f"{path}:{line}:{column}: error[{code}]: {message}"


def _dunder_all(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                for item in ast.walk(node.value):
                    if isinstance(item, ast.Constant) and isinstance(
                        item.value, str
                    ):
                        names.add(item.value)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # a.b.c marks the root name `a` used (module-style access)
            inner = node.value
            while isinstance(inner, ast.Attribute):
                inner = inner.value
            if isinstance(inner, ast.Name):
                used.add(inner.id)
    return used


def _type_checking_imports(tree: ast.Module) -> set[ast.AST]:
    """Import nodes inside ``if TYPE_CHECKING:`` blocks (L001-exempt)."""
    exempt: set[ast.AST] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_guard = (
            isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        ) or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if is_guard:
            for child in ast.walk(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    exempt.add(child)
    return exempt


def _check_unused_imports(path: Path, tree: ast.Module) -> list[str]:
    if path.name == "__init__.py":
        return []
    exported = _dunder_all(tree)
    used = _used_names(tree)
    exempt = _type_checking_imports(tree)
    findings = []
    for node in ast.walk(tree):
        if node in exempt:
            continue
        if isinstance(node, ast.Import):
            aliases = [
                (a, (a.asname or a.name.split(".")[0])) for a in node.names
            ]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            aliases = [(a, (a.asname or a.name)) for a in node.names]
        else:
            continue
        for alias, bound in aliases:
            if bound == "*" or bound in exported or bound in used:
                continue
            findings.append(
                _finding(
                    path,
                    node,
                    "L001",
                    f"import {bound!r} is never used",
                )
            )
    return findings


def _check_bare_except(path: Path, tree: ast.Module) -> list[str]:
    return [
        _finding(
            path,
            node,
            "L002",
            "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
            "catch Exception or narrower",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is None
    ]


def _check_mutable_defaults(path: Path, tree: ast.Module) -> list[str]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in MUTABLE_CALLS
            )
            if mutable:
                findings.append(
                    _finding(
                        path,
                        default,
                        "L003",
                        f"mutable default argument in {node.name}(); "
                        "use None and construct inside the body",
                    )
                )
    return findings


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name under ``tree``."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def check_dead_public_names(source_root: Path) -> list[str]:
    """L004 over the ``repro`` package under ``source_root``."""
    package = source_root / "repro"
    files = sorted(source_root.rglob("*.py"))
    for name in REFERENCE_DIRS:
        files += sorted((source_root.parent / name).rglob("*.py"))
    # Per file, the identifiers of each top-level statement: a definition
    # does not keep itself alive, every other statement can.
    statements: dict[Path, list[tuple[ast.stmt, set[str]]]] = {}
    for file in files:
        if file.name == "__init__.py" and package in file.parents:
            continue  # re-exports are not callers
        try:
            tree = ast.parse(file.read_text(), filename=str(file))
        except SyntaxError:
            continue  # lint_file reports it as L000
        statements[file] = [(node, _identifiers(node)) for node in tree.body]
    findings = []
    for file, body in statements.items():
        if package not in file.parents:
            continue
        for node, _ in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            key = f"{file.relative_to(package).as_posix()}:{node.name}"
            if key in DEAD_NAME_ALLOWLIST:
                continue
            if any(
                node.name in names
                for other_body in statements.values()
                for other, names in other_body
                if other is not node
            ):
                continue
            findings.append(
                _finding(
                    file,
                    node,
                    "L004",
                    f"public name {node.name!r} has no caller outside its own "
                    "definition, __init__ re-exports and tests; delete it, make "
                    "it private, or allowlist it with a reason",
                )
            )
    return findings


def check_env_reads(package: Path) -> list[str]:
    """L005 over every module of the ``repro`` package at ``package``."""
    findings = []
    for file in sorted(package.rglob("*.py")):
        try:
            tree = ast.parse(file.read_text(), filename=str(file))
        except SyntaxError:
            continue  # lint_file reports it as L000
        reported: set[ast.AST] = set()  # a literal sits under nested reads
        for node in ast.walk(tree):
            # os.environ.get("X") / os.environ["X"] / "X" in os.environ /
            # os.getenv("X"): an expression naming environ or getenv.
            if not isinstance(node, (ast.Call, ast.Subscript, ast.Compare)):
                continue
            if not _identifiers(node) & {"environ", "getenv"}:
                continue
            for literal in ast.walk(node):
                if (
                    isinstance(literal, ast.Constant)
                    and isinstance(literal.value, str)
                    and _ENV_NAME.fullmatch(literal.value)
                    and literal.value not in ENV_ALLOWLIST
                    and literal not in reported
                ):
                    reported.add(literal)
                    findings.append(
                        _finding(
                            file,
                            literal,
                            "L005",
                            f"environment variable {literal.value!r} is not in "
                            "ENV_ALLOWLIST; the package reads deployment paths "
                            "from the environment, not behaviour switches",
                        )
                    )
    return findings


def check_bucket_sorts(package: Path) -> list[str]:
    """L006 over ``buckets/`` of the ``repro`` package at ``package``."""
    findings = []
    for file in sorted((package / "buckets").rglob("*.py")):
        try:
            tree = ast.parse(file.read_text(), filename=str(file))
        except SyntaxError:
            continue  # lint_file reports it as L000
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
            ):
                findings.append(
                    _finding(
                        file,
                        node,
                        "L006",
                        "np.unique in the bucket queues re-hashes and re-sorts "
                        "a set that is distinct by construction; use "
                        "sorted_distinct / split_by_order (buckets/interface.py)",
                    )
                )
    return findings


def _imported_modules(node: ast.AST, package: list[str]) -> list[list[str]]:
    """Absolute dotted paths an import statement in ``package`` names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".") for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = package[: len(package) - node.level + 1] if node.level else []
    if node.module:
        return [base + node.module.split(".")]
    return [base + [alias.name] for alias in node.names]


def check_algorithm_queues(package: Path) -> list[str]:
    """L007 over ``algorithms/`` of the ``repro`` package at ``package``."""
    findings = []
    for file in sorted((package / "algorithms").glob("*.py")):
        try:
            tree = ast.parse(file.read_text(), filename=str(file))
        except SyntaxError:
            continue  # lint_file reports it as L000
        for node in ast.walk(tree):
            if any(
                path[: len(module)] == module
                for path in _imported_modules(node, ["repro", "algorithms"])
                for module in _LOOP_MODULES
            ):
                findings.append(
                    _finding(
                        file,
                        node,
                        "L007",
                        "an algorithm module builds its own bucket queue or "
                        "ordered loop; write the algorithm in "
                        "lang/programs.py and wrap compile_program instead",
                    )
                )
    return findings


def check_backend_analyses(package: Path) -> list[str]:
    """L009 over ``backend/`` of the ``repro`` package at ``package``."""
    findings = []
    for file in sorted((package / "backend").rglob("*.py")):
        try:
            tree = ast.parse(file.read_text(), filename=str(file))
        except SyntaxError:
            continue  # lint_file reports it as L000
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            function = node.func
            name = getattr(function, "id", getattr(function, "attr", None))
            if name in _PLANNER_ANALYSES or (
                name == "walk"
                and isinstance(function, ast.Attribute)
                and isinstance(function.value, ast.Name)
                and function.value.id == "ast"
            ):
                findings.append(
                    _finding(
                        file,
                        node,
                        "L009",
                        f"a backend calls {name}: read the answer from the "
                        "plan (midend/transforms/lowering.py) instead of "
                        "analysing the program again",
                    )
                )
    return findings


def check_midend_cycles(package: Path) -> list[str]:
    """L008 over ``midend/`` of the ``repro`` package at ``package``."""
    root = package.parent
    modules: dict[tuple[str, ...], Path] = {}
    for file in sorted(package.joinpath(*_ACYCLIC_PACKAGE[1:]).rglob("*.py")):
        parts = file.relative_to(root).with_suffix("").parts
        modules[parts[:-1] if parts[-1] == "__init__" else parts] = file
    # module -> {imported module: the first import statement naming it}
    edges: dict[tuple[str, ...], dict[tuple[str, ...], ast.AST]] = {}
    for name, file in modules.items():
        try:
            tree = ast.parse(file.read_text(), filename=str(file))
        except SyntaxError:
            continue  # lint_file reports it as L000
        package_parts = list(name if file.name == "__init__.py" else name[:-1])
        skipped = _type_checking_imports(tree)
        targets = edges.setdefault(name, {})
        for node in ast.walk(tree):
            if node in skipped:
                continue
            from_names = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom)
                else []
            )
            for path in _imported_modules(node, package_parts):
                # ``from package import module`` names the module.
                for target in [tuple(path + [n]) for n in from_names] + [tuple(path)]:
                    if target in modules and target != name:
                        targets.setdefault(target, node)
                        break
    findings = []
    reported: set[tuple[str, ...]] = set()
    for start in sorted(edges):
        cycle = _cycle_through(start, edges)
        if cycle is None or reported & set(cycle):
            continue
        reported.update(cycle)
        chain = " -> ".join(".".join(m) for m in cycle + [start])
        findings.append(
            _finding(
                modules[start],
                edges[start][cycle[1]],
                "L008",
                f"import cycle inside repro.midend: {chain}; derive the "
                f"shared fact once in the module both read",
            )
        )
    return findings


def _cycle_through(start, edges) -> list | None:
    """The shortest import path ``start -> ... -> start``, if any."""
    paths = {start: [start]}
    frontier = [start]
    while frontier:
        following = []
        for module in frontier:
            for target in edges.get(module, {}):
                if target == start:
                    return paths[module]
                if target not in paths:
                    paths[target] = paths[module] + [target]
                    following.append(target)
        frontier = following
    return None


def lint_file(path: Path) -> list[str]:
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as error:
        return [
            f"{path}:{error.lineno or 1}:{(error.offset or 0) + 1}: "
            f"error[L000]: syntax error: {error.msg}"
        ]
    findings = []
    findings += _check_unused_imports(path, tree)
    findings += _check_bare_except(path, tree)
    findings += _check_mutable_defaults(path, tree)
    return findings


def lint_paths(paths: list[Path]) -> list[str]:
    findings: list[str] = []
    for root in paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            findings += lint_file(file)
        if (root / "repro").is_dir():
            findings += check_dead_public_names(root)
            findings += check_env_reads(root / "repro")
            findings += check_bucket_sorts(root / "repro")
            findings += check_algorithm_queues(root / "repro")
            findings += check_midend_cycles(root / "repro")
            findings += check_backend_analyses(root / "repro")
    return findings


def main(argv: list[str]) -> int:
    targets = [Path(arg) for arg in (argv or ["src"])]
    missing = [str(t) for t in targets if not t.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = lint_paths(targets)
    for finding in findings:
        print(finding)
    checked = sum(
        len(list(t.rglob("*.py"))) if t.is_dir() else 1 for t in targets
    )
    print(
        f"static-lint: checked {checked} file(s), "
        f"{len(findings)} finding(s)"
    )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
