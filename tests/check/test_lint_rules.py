"""Tests for the repo lint (tools/lint_rules.py)."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT = REPO_ROOT / "tools" / "lint_rules.py"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import lint_rules  # noqa: E402


def violations(source):
    return [(rule, line) for _, line, rule, _ in lint_rules.lint_source(source, Path("x.py"))]


class TestBarePrint:
    def test_bare_print_flagged(self):
        assert violations("print('hi')\n") == [("L001", 1)]

    def test_print_with_file_allowed(self):
        assert violations("import sys\nprint('hi', file=sys.stderr)\n") == []

    def test_method_named_print_allowed(self):
        assert violations("obj.print('hi')\n") == []


class TestMutableDefaults:
    def test_list_literal_default(self):
        assert violations("def f(x=[]):\n    pass\n") == [("L002", 1)]

    def test_dict_and_set_literals(self):
        assert violations("def f(x={}, y={1}):\n    pass\n") == [
            ("L002", 1),
            ("L002", 1),
        ]

    def test_constructor_call_default(self):
        assert violations("def f(x=list()):\n    pass\n") == [("L002", 1)]

    def test_keyword_only_default(self):
        assert violations("def f(*, x=[]):\n    pass\n") == [("L002", 1)]

    def test_lambda_default(self):
        assert violations("g = lambda x=[]: x\n") == [("L002", 1)]

    def test_none_default_allowed(self):
        assert violations("def f(x=None, y=0, z=()):\n    pass\n") == []


class TestHotLoopAllocations:
    def test_instruction_in_run_compiled_flagged(self):
        source = (
            "def run_compiled(self, compiled):\n"
            "    for i in range(compiled.length):\n"
            "        inst = Instruction(op, addr, size)\n"
        )
        assert violations(source) == [("L003", 3)]

    def test_cacheblock_in_step_compiled_flagged(self):
        source = (
            "def step_compiled_gpu(self, compiled):\n"
            "    block = CacheBlock(tag, True)\n"
        )
        assert violations(source) == [("L003", 2)]

    def test_attribute_constructor_flagged(self):
        source = (
            "def run_compiled(self, compiled):\n"
            "    block = cache.CacheBlock()\n"
        )
        assert violations(source) == [("L003", 2)]

    def test_other_functions_unrestricted(self):
        source = (
            "def run_stepwise(self, instructions):\n"
            "    block = CacheBlock(tag, True)\n"
        )
        assert violations(source) == []

    def test_decoding_helpers_allowed_in_hot_loop(self):
        # Calling a *method named* instructions() is fine — only the
        # record constructors themselves are forbidden.
        source = (
            "def run_compiled(self, compiled):\n"
            "    return self._run_stepwise_warp(compiled.instructions())\n"
        )
        assert violations(source) == []


class TestCommandLine:
    def run(self, *args):
        return subprocess.run(
            [sys.executable, str(LINT), *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_src_tree_is_clean(self):
        result = self.run("src")
        assert result.returncode == 0, result.stderr
        assert "0 violations" in result.stderr

    def test_violating_file_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    print(x)\n")
        result = self.run(str(bad))
        assert result.returncode == 1
        assert "L001" in result.stderr and "L002" in result.stderr


class TestRuleCatalogCoverage:
    """L005: every check rule needs a fixture and a docs entry."""

    RULES_SRC = (
        "_RULES = (\n"
        '    Rule(id="RACE001", title="t"),\n'
        '    Rule(id="OPT999", title="t"),\n'
        ")\n"
    )

    def catalog_violations(self, fixtures_src, docs_text):
        return [
            (rule, message)
            for _, _, rule, message in lint_rules.lint_rule_catalog(
                self.RULES_SRC, fixtures_src, docs_text
            )
        ]

    def test_covered_catalog_is_clean(self):
        fixtures = 'SeededViolation(rule="RACE001")\nSeededViolation(rule="OPT999")\n'
        docs = "| `RACE001` | error | ... |\n| `OPT999` | warning | ... |\n"
        assert self.catalog_violations(fixtures, docs) == []

    def test_missing_fixture_flagged(self):
        fixtures = 'SeededViolation(rule="RACE001")\n'
        docs = "`RACE001` `OPT999`"
        found = self.catalog_violations(fixtures, docs)
        assert len(found) == 1
        rule, message = found[0]
        assert rule == "L005" and "OPT999" in message and "fixture" in message

    def test_missing_docs_entry_flagged(self):
        fixtures = 'SeededViolation(rule="RACE001")\nSeededViolation(rule="OPT999")\n'
        docs = "only `RACE001` is documented"
        found = self.catalog_violations(fixtures, docs)
        assert len(found) == 1
        rule, message = found[0]
        assert rule == "L005" and "OPT999" in message and "documented" in message

    def test_live_catalog_is_covered(self):
        """The real rules.py / fixtures.py / docs triple passes L005."""
        rules_path = REPO_ROOT / "src" / "repro" / "check" / "rules.py"
        found = lint_rules._lint_catalog_files(rules_path)
        assert found == [], found

    def test_cli_runs_catalog_check(self):
        result = subprocess.run(
            [sys.executable, str(LINT), "src/repro/check/rules.py"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr


class TestChaosCatalogCoverage:
    """L006: every chaos scenario needs a docs entry and a test reference."""

    CHAOS_SRC = (
        '@_scenario("store-torn-write", "torn record recovery")\n'
        "def _a(context):\n"
        "    pass\n"
        "\n"
        '@_scenario("serve-overload", "bounded queue sheds typed")\n'
        "def _b(context):\n"
        "    pass\n"
    )

    def catalog_violations(self, docs_text, tests_text):
        return [
            (rule, message)
            for _, _, rule, message in lint_rules.lint_chaos_catalog(
                self.CHAOS_SRC, docs_text, tests_text
            )
        ]

    def test_covered_catalog_is_clean(self):
        docs = "- `store-torn-write` — ...\n- `serve-overload` — ...\n"
        tests = '["store-torn-write", "serve-overload"]\n'
        assert self.catalog_violations(docs, tests) == []

    def test_missing_docs_entry_flagged(self):
        docs = "only `store-torn-write` is documented"
        tests = '["store-torn-write", "serve-overload"]\n'
        found = self.catalog_violations(docs, tests)
        assert len(found) == 1
        rule, message = found[0]
        assert rule == "L006" and "serve-overload" in message
        assert "documented" in message

    def test_missing_test_reference_flagged(self):
        docs = "- `store-torn-write` —\n- `serve-overload` —\n"
        tests = 'run_scenarios(["store-torn-write"])\n'
        found = self.catalog_violations(docs, tests)
        assert len(found) == 1
        rule, message = found[0]
        assert rule == "L006" and "serve-overload" in message
        assert "referenced" in message

    def test_live_catalog_is_covered(self):
        """The real chaos.py / docs / tests triple passes L006."""
        chaos_path = REPO_ROOT / "src" / "repro" / "faults" / "chaos.py"
        found = lint_rules._lint_chaos_files(chaos_path)
        assert found == [], found

    def test_cli_runs_chaos_catalog_check(self):
        result = subprocess.run(
            [sys.executable, str(LINT), "src/repro/faults/chaos.py"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr


class TestReferenceOracleImports:
    """L007: only the hotpath bench may import the reference oracle."""

    def library_violations(self, source, path="src/repro/sim/detailed.py"):
        return [
            (rule, line)
            for _, line, rule, _ in lint_rules.lint_source(source, Path(path))
        ]

    def test_import_forms_flagged_in_library_code(self):
        assert self.library_violations("import repro.sim.reference\n") == [
            ("L007", 1)
        ]
        assert self.library_violations(
            "from repro.sim.reference import ReferenceSimulator\n"
        ) == [("L007", 1)]
        assert self.library_violations("from repro.sim import reference\n") == [
            ("L007", 1)
        ]

    def test_hotpath_bench_may_import(self):
        source = "from repro.sim.reference import ReferenceSimulator\n"
        assert self.library_violations(source, "src/repro/perf/bench.py") == []

    def test_tests_may_import(self):
        source = "from repro.sim.reference import run_segment\n"
        assert self.library_violations(source, "tests/sim/test_cores.py") == []

    def test_sibling_modules_allowed(self):
        source = "from repro.sim import detailed, engine\nimport repro.sim.reference_data\n"
        assert self.library_violations(source) == []


class TestMesiStateOwnership:
    def test_state_assignment_flagged_outside_coherence(self):
        assert violations("block.state = MESIState.MODIFIED\n") == [("L004", 1)]

    def test_annotated_and_augmented_assignments_flagged(self):
        assert violations("block.state: MESIState = s\n") == [("L004", 1)]
        assert violations("block.state |= s\n") == [("L004", 1)]

    def test_coherence_package_may_assign(self):
        source = "block.state = MESIState.INVALID\n"
        path = Path("src/repro/mem/coherence/protocol.py")
        assert lint_rules.lint_source(source, path) == []

    def test_reading_state_allowed(self):
        assert violations("if block.state is MESIState.MODIFIED:\n    pass\n") == []

    def test_local_variable_named_state_allowed(self):
        assert violations("state = compute()\n") == []
