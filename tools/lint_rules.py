#!/usr/bin/env python3
"""AST-based repo lint enforcing the project invariants.

- **L001 — no bare ``print()`` in library code.** Status output must go
  through ``repro.obs.log`` so ``--quiet``/``-v`` and test capture work;
  a ``print`` with an explicit ``file=`` argument (deliberate stderr
  error reporting, as in the CLI's exception handlers) is allowed.
- **L002 — no mutable default arguments.** ``def f(x=[])`` shares one
  list across every call; use ``None`` plus an in-body default.
- **L003 — no per-instruction object construction in batched hot
  loops.** Functions named ``run_compiled*`` / ``step_compiled*`` /
  ``private_hit*`` / ``miss*`` (the per-access probe and its miss entry)
  exist precisely to avoid allocating ``Instruction`` / ``CacheBlock`` /
  ``CoherenceAction`` objects per instruction or per access; building
  one inside them silently reintroduces the overhead the compiled path
  removed. Allocate outside the loop, use the array records, or return
  an interned action instead. A fill builds its block in the cache's one
  install path, which runs once per fill, not per access.
- **L005 — every check rule is seeded and documented.** Each ``Rule``
  in ``repro/check/rules.py`` must have a fixture in
  ``repro/check/fixtures.py`` (the checker's ground truth — an
  undetectable rule is dead code) and an entry in
  ``docs/check-rules.md`` (rule ids are stable user-facing API). Runs
  automatically whenever the linted set includes the rule catalog.
- **L006 — every chaos scenario is documented and tested.** Each
  ``@_scenario("id", ...)`` registration in ``repro/faults/chaos.py``
  must have an entry in ``docs/chaos-scenarios.md`` (scenario ids are
  stable ``--scenario`` API and the CI chaos job's vocabulary) and a
  reference in ``tests/faults/test_chaos.py`` (an untested drill rots
  silently). Runs automatically whenever the linted set includes the
  scenario catalog.
- **L007 — the reference oracle stays out of production.**
  ``repro.sim.reference`` (the per-instruction generator expansion the
  parity suite checks the compiled walk against) may be imported by the
  tests only; a module under ``repro`` importing it would make the
  oracle a second production path.
- **L008 — one module decides the channel.** In library code only
  ``repro/perf/sweep.py`` (``SweepPoint.channel_for``) may call
  ``make_channel``; ``repro/comm/`` defines it. Any other caller would
  be a second copy of the rule that turns a design point into its
  channel.

Usage::

    python tools/lint_rules.py src [more dirs or files...]

Prints ``path:line: RULE message`` per violation and exits 1 when any
were found (0 otherwise) so it slots straight into CI. Standard library
only — no third-party dependencies.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

Violation = Tuple[Path, int, str, str]

#: Builtin constructors whose call as a default argument is just as
#: mutable (and shared) as the display-literal forms.
MUTABLE_CONSTRUCTORS = ("list", "dict", "set", "bytearray")

#: Hot-path function name prefixes covered by L003.
HOT_LOOP_PREFIXES = ("run_compiled", "step_compiled", "private_hit", "miss")

#: Per-instruction and per-access record types that must never be built
#: inside a batched hot loop (L003).
HOT_LOOP_FORBIDDEN = frozenset({"Instruction", "CacheBlock", "CoherenceAction"})

#: The checker's rule catalog; whenever it is part of the linted set,
#: L005 cross-checks it against the fixtures and the docs.
RULE_CATALOG = "repro/check/rules.py"

#: The chaos scenario catalog; whenever it is part of the linted set,
#: L006 cross-checks it against the docs and the test suite.
CHAOS_CATALOG = "repro/faults/chaos.py"

#: The reference oracle (L007): no library module may import it.
REFERENCE_MODULE = "repro.sim.reference"

#: The channel factory (L008), the one library module that may call it,
#: and the package that defines it.
CHANNEL_FACTORY = "make_channel"
CHANNEL_CALLER = "repro/perf/sweep.py"
CHANNEL_PACKAGE = "repro/comm/"


def _called_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_CONSTRUCTORS
    )


def _imported_modules(node: ast.AST) -> List[str]:
    """Every module an absolute import statement may bind."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def lint_source(source: str, path: Path) -> List[Violation]:
    """All violations in one python source file."""
    violations: List[Violation] = []
    tree = ast.parse(source, filename=str(path))
    guards_reference = "repro" in path.parts
    guards_channel = (
        "repro" in path.parts
        and not path.as_posix().endswith(CHANNEL_CALLER)
        and CHANNEL_PACKAGE not in path.as_posix()
    )
    for node in ast.walk(tree):
        if guards_reference and any(
            name == REFERENCE_MODULE or name.startswith(REFERENCE_MODULE + ".")
            for name in _imported_modules(node)
        ):
            violations.append(
                (
                    path,
                    node.lineno,
                    "L007",
                    f"{REFERENCE_MODULE} imported in library code; the "
                    "reference oracle is for tests only",
                )
            )
        if (
            guards_channel
            and isinstance(node, ast.Call)
            and _called_name(node) == CHANNEL_FACTORY
        ):
            violations.append(
                (
                    path,
                    node.lineno,
                    "L008",
                    f"{CHANNEL_FACTORY}() called in library code; a point's "
                    f"channel is decided by SweepPoint.channel_for "
                    f"({CHANNEL_CALLER}) only",
                )
            )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not any(kw.arg == "file" for kw in node.keywords)
        ):
            violations.append(
                (
                    path,
                    node.lineno,
                    "L001",
                    "bare print(); route output through repro.obs.log "
                    "(print(..., file=...) is allowed for stderr)",
                )
            )
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            defaults = list(args.defaults) + [
                default for default in args.kw_defaults if default is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    violations.append(
                        (
                            path,
                            default.lineno,
                            "L002",
                            "mutable default argument; use None and build "
                            "the value inside the function",
                        )
                    )
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.name.startswith(HOT_LOOP_PREFIXES):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and _called_name(inner) in HOT_LOOP_FORBIDDEN
                ):
                    violations.append(
                        (
                            path,
                            inner.lineno,
                            "L003",
                            f"{_called_name(inner)} constructed inside "
                            f"batched hot loop {node.name}(); per-"
                            "instruction objects defeat the compiled path",
                        )
                    )
    return violations


def _catalog_rules(rules_source: str, path: Path) -> List[Tuple[str, int]]:
    """``(rule_id, lineno)`` for every ``Rule(id=...)`` in the catalog."""
    rules: List[Tuple[str, int]] = []
    for node in ast.walk(ast.parse(rules_source, filename=str(path))):
        if isinstance(node, ast.Call) and _called_name(node) == "Rule":
            for kw in node.keywords:
                if kw.arg == "id" and isinstance(kw.value, ast.Constant):
                    rules.append((str(kw.value.value), node.lineno))
    return rules


def _fixture_rule_ids(fixtures_source: str, path: Path) -> set:
    """Every ``rule="..."`` keyword value in the fixtures module."""
    ids = set()
    for node in ast.walk(ast.parse(fixtures_source, filename=str(path))):
        if isinstance(node, ast.keyword) and node.arg == "rule":
            if isinstance(node.value, ast.Constant):
                ids.add(str(node.value.value))
    return ids


def lint_rule_catalog(
    rules_source: str,
    fixtures_source: str,
    docs_text: str,
    rules_path: Path = Path(RULE_CATALOG),
) -> List[Violation]:
    """L005: every catalog rule has a fixture and a docs entry."""
    violations: List[Violation] = []
    fixture_ids = _fixture_rule_ids(fixtures_source, rules_path)
    for rule_id, lineno in _catalog_rules(rules_source, rules_path):
        if rule_id not in fixture_ids:
            violations.append(
                (
                    rules_path,
                    lineno,
                    "L005",
                    f"rule {rule_id} has no seeded fixture in "
                    "repro/check/fixtures.py; an undetectable rule is "
                    "dead code",
                )
            )
        if f"`{rule_id}`" not in docs_text:
            violations.append(
                (
                    rules_path,
                    lineno,
                    "L005",
                    f"rule {rule_id} is not documented in "
                    "docs/check-rules.md; rule ids are stable API",
                )
            )
    return violations


def _lint_catalog_files(rules_path: Path) -> List[Violation]:
    """Resolve the catalog's companion files on disk and run L005."""
    fixtures_path = rules_path.with_name("fixtures.py")
    docs_path = rules_path.parents[3] / "docs" / "check-rules.md"
    for companion in (fixtures_path, docs_path):
        if not companion.is_file():
            return [
                (
                    rules_path,
                    1,
                    "L005",
                    f"rule catalog companion {companion} is missing",
                )
            ]
    return lint_rule_catalog(
        rules_path.read_text(encoding="utf-8"),
        fixtures_path.read_text(encoding="utf-8"),
        docs_path.read_text(encoding="utf-8"),
        rules_path,
    )


def _chaos_scenario_ids(chaos_source: str, path: Path) -> List[Tuple[str, int]]:
    """``(scenario_id, lineno)`` for every ``@_scenario("id", ...)``."""
    ids: List[Tuple[str, int]] = []
    for node in ast.walk(ast.parse(chaos_source, filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and _called_name(node) == "_scenario"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            ids.append((node.args[0].value, node.lineno))
    return ids


def lint_chaos_catalog(
    chaos_source: str,
    docs_text: str,
    tests_text: str,
    chaos_path: Path = Path(CHAOS_CATALOG),
) -> List[Violation]:
    """L006: every chaos scenario has a docs entry and a test reference."""
    violations: List[Violation] = []
    for scenario_id, lineno in _chaos_scenario_ids(chaos_source, chaos_path):
        if f"`{scenario_id}`" not in docs_text:
            violations.append(
                (
                    chaos_path,
                    lineno,
                    "L006",
                    f"scenario {scenario_id} is not documented in "
                    "docs/chaos-scenarios.md; scenario ids are stable "
                    "--scenario API",
                )
            )
        if f'"{scenario_id}"' not in tests_text:
            violations.append(
                (
                    chaos_path,
                    lineno,
                    "L006",
                    f"scenario {scenario_id} is not referenced in "
                    "tests/faults/test_chaos.py; an untested drill rots "
                    "silently",
                )
            )
    return violations


def _lint_chaos_files(chaos_path: Path) -> List[Violation]:
    """Resolve the scenario catalog's companion files and run L006."""
    root = chaos_path.parents[3]
    docs_path = root / "docs" / "chaos-scenarios.md"
    tests_path = root / "tests" / "faults" / "test_chaos.py"
    for companion in (docs_path, tests_path):
        if not companion.is_file():
            return [
                (
                    chaos_path,
                    1,
                    "L006",
                    f"scenario catalog companion {companion} is missing",
                )
            ]
    return lint_chaos_catalog(
        chaos_path.read_text(encoding="utf-8"),
        docs_path.read_text(encoding="utf-8"),
        tests_path.read_text(encoding="utf-8"),
        chaos_path,
    )


def iter_python_files(targets: List[str]) -> Iterator[Path]:
    for target in targets:
        path = Path(target)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def main(argv: List[str]) -> int:
    targets = argv or ["src"]
    violations: List[Violation] = []
    checked = 0
    for path in iter_python_files(targets):
        checked += 1
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            return 2
        violations.extend(lint_source(source, path))
        if path.as_posix().endswith(RULE_CATALOG):
            violations.extend(_lint_catalog_files(path))
        if path.as_posix().endswith(CHAOS_CATALOG):
            violations.extend(_lint_chaos_files(path))
    for path, line, rule_id, message in violations:
        print(f"{path}:{line}: {rule_id} {message}", file=sys.stderr)
    print(
        f"lint_rules: {checked} files checked, {len(violations)} violations",
        file=sys.stderr,
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
