"""The ``repro check`` CLI: exit codes, formats, classification, catalog, repo gate."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from repro.check.engine import check_paths, failing
from repro.check.findings import LintUsageError
from repro.check.reporters import render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

REPO_TARGETS = [
    "examples/specs",
    "tests/data/equivalence_goldens.json",
]
#: What CI's lint job checks: code rules and auditor in one pass.
GATE_PATHS = [str(REPO_ROOT / name) for name in ("src/repro", "tests", "benchmarks", "examples")]

CLEAN_SNIPPET = "from repro import units\n\nRATE = units.mbps(45.0)\n"
BAD_SNIPPET = "def rate(mbits):\n    return mbits * 1e6 / 8\n"


def write_library_file(tmp_path, name, text):
    """Place a snippet under a src/repro-like path so library rules apply."""
    target = tmp_path / "src" / "repro" / "sim" / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


class TestRepoGate:
    """Tier-1 gate: the repo passes its own checks.

    This is the enforcement point for the determinism / units / error /
    sim-time / hot-path invariants and for the committed specs and
    artifacts: any new finding fails the ordinary test run, not just the
    CI lint job.  Deliberate exceptions must carry a
    ``# repro: noqa RPR### — reason`` annotation *with* a reason.
    """

    @pytest.fixture(scope="class")
    def gate_findings(self):
        return check_paths(GATE_PATHS)

    @staticmethod
    def under(findings, *names):
        roots = tuple(str(REPO_ROOT / name) for name in names)
        return [finding for finding in findings if finding.path.startswith(roots)]

    def test_src_tree_is_lint_clean(self, gate_findings):
        findings = self.under(gate_findings, "src")
        assert failing(findings, strict=True) == [], "\n" + render_text(findings)

    def test_library_only_pass_is_clean(self):
        # RPR110 needs benchmarks/ and examples/ in the pass to see every
        # caller: over src/repro alone it skips, and its pragmas are not
        # reported stale.
        findings = check_paths([str(REPO_ROOT / "src" / "repro")])
        assert failing(findings, strict=True) == [], "\n" + render_text(findings)
        assert not [finding for finding in findings if finding.rule_id == "RPR110"]

    def test_tests_and_benchmarks_scan_without_findings(self, gate_findings):
        # Library rules do not apply outside src/, but the suppression
        # scanner does: malformed noqa comments anywhere are RPR001
        # findings.
        findings = self.under(gate_findings, "tests", "benchmarks")
        assert failing(findings, strict=True) == [], "\n" + render_text(findings)

    def test_repo_specs_and_artifacts_audit_clean(self, gate_findings):
        # Every gate path, examples/ included.  Warnings count too.
        assert failing(gate_findings, strict=True) == [], "\n" + render_text(gate_findings)

    def test_every_suppression_carries_a_reason(self, gate_findings):
        silent = [
            finding
            for finding in gate_findings
            if finding.suppressed and not finding.suppress_reason
        ]
        assert silent == [], f"suppressions without a reason: {silent}"

    def test_cli_exits_clean_on_repo_files(self, capsys):
        assert main(REPO_TARGETS) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = write_library_file(tmp_path, "clean.py", CLEAN_SNIPPET)
        assert main([str(target)]) == EXIT_CLEAN
        assert "clean: 0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = write_library_file(tmp_path, "bad.py", BAD_SNIPPET)
        assert main([str(target)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RPR102" in out

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == EXIT_ERROR
        assert "no paths" in capsys.readouterr().err

    def test_no_paths_exits_two(self, capsys):
        assert main([]) == EXIT_ERROR
        assert "no paths given" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["does/not/exist.json"]) == EXIT_ERROR
        assert "no such file" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        target = write_library_file(tmp_path, "clean.py", CLEAN_SNIPPET)
        assert main(["--select", "RPR999", str(target)]) == EXIT_ERROR
        assert "unknown rule id" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        target = write_library_file(tmp_path, "broken.py", "def broken(:\n")
        assert main([str(target)]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_select_restricts_rules(self, tmp_path, capsys):
        target = write_library_file(tmp_path, "bad.py", BAD_SNIPPET)
        assert main(["--select", "RPR101", str(target)]) == EXIT_CLEAN
        capsys.readouterr()

    def test_select_takes_auditor_ids_too(self, tmp_path, capsys):
        source = write_library_file(tmp_path, "bad.py", BAD_SNIPPET)
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"schema": "repro-timeline-v0"}), encoding="utf-8")
        assert main(["--select", "RPR205", str(source), str(stale)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RPR205" in out and "RPR102" not in out

    def test_error_finding_exits_one(self, tmp_path, capsys):
        target = tmp_path / "stale.json"
        target.write_text(json.dumps({"schema": "repro-timeline-v0"}), encoding="utf-8")
        assert main([str(target)]) == EXIT_FINDINGS
        assert "RPR205" in capsys.readouterr().out

    def test_warning_alone_exits_clean_unless_strict(self, tmp_path, capsys):
        spec = {
            "name": "tight",
            "workload": "table1",
            "scheme": "FIFO_THRESHOLD",
            "buffer_mb": 0.02,
            "sim_time": 1.0,
            "seeds": [1],
            "metrics": ["utilization"],
        }
        target = tmp_path / "tight.json"
        target.write_text(json.dumps(spec), encoding="utf-8")
        assert main([str(target)]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "RPR201" in out and "warning" in out
        assert main(["--strict", str(target)]) == EXIT_FINDINGS

    def test_unrecognized_explicit_file_is_rpr203(self, tmp_path, capsys):
        target = tmp_path / "mystery.json"
        target.write_text(json.dumps({"stuff": 1}), encoding="utf-8")
        assert main([str(target)]) == EXIT_FINDINGS
        assert "RPR203" in capsys.readouterr().out

    def test_unrecognized_file_in_directory_is_skipped(self, tmp_path, capsys):
        (tmp_path / "mystery.json").write_text(json.dumps({"stuff": 1}), encoding="utf-8")
        assert main([str(tmp_path)]) == EXIT_CLEAN

    def test_named_python_file_gets_code_rule_findings(self, tmp_path, capsys):
        # A .py path is source for the code rules, never a spec to parse
        # as JSON; a data file named beside it still goes to the auditor.
        source = write_library_file(tmp_path, "bad.py", BAD_SNIPPET)
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"schema": "repro-timeline-v0"}), encoding="utf-8")
        assert main([str(source), str(stale)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert f"{source}:2:" in out and "RPR102" in out
        assert f"{stale}:1:1: RPR205" in out
        assert "RPR203" not in out


class TestOutputs:
    def test_json_format_parses(self, tmp_path, capsys):
        target = tmp_path / "stale.json"
        target.write_text(json.dumps({"schema": "repro-trace-v1"}), encoding="utf-8")
        assert main(["--format", "json", str(target)]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "RPR205"

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        target = write_library_file(tmp_path, "bad.py", BAD_SNIPPET)
        assert main(["--format", "json", str(target)]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["RPR102"] == 1
        assert payload["findings"][0]["rule"] == "RPR102"
        assert payload["findings"][0]["line"] == 2

    def test_list_rules_names_all_six_domain_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106"):
            assert rule_id in out
        assert "RPR201" in out

    def test_list_rules_prints_invariant_catalog(self, capsys):
        # The scenario and artifact rules share the one catalog.
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("RPR201", "RPR202", "RPR203", "RPR204", "RPR205", "RPR206"):
            assert code in out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "invariant" in capsys.readouterr().out.lower()


def emittable_ids():
    """Every ``"RPR###"`` string literal in the check package's source."""
    ids = set()
    for path in (SRC_ROOT / "repro" / "check").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"RPR\d{3}", node.value):
                    ids.add(node.value)
    return ids


class TestCatalog:
    def test_every_emittable_id_is_listed_and_documented(self, capsys):
        emitted = emittable_ids()
        assert {"RPR001", "RPR002", "RPR109", "RPR206"} <= emitted
        assert main(["--list-rules"]) == EXIT_CLEAN
        listed = set(re.findall(r"^(RPR\d{3}) ", capsys.readouterr().out, re.M))
        assert emitted <= listed
        doc = (REPO_ROOT / "docs" / "checking.md").read_text(encoding="utf-8")
        table = {
            rule_id
            for line in doc.splitlines()
            if line.startswith("|")
            for rule_id in re.findall(r"RPR\d{3}", line)
        }
        assert emitted <= table

    def test_listing_the_catalog_does_not_load_the_auditor(self):
        code = (
            "import sys\n"
            "from repro.check.cli import main\n"
            "main(['--list-rules'])\n"
            "loaded = {m for m in sys.modules if m.startswith('repro.')}\n"
            "assert 'repro.check.invariants' not in loaded, sorted(loaded)\n"
            "assert 'repro.check.artifacts' not in loaded, sorted(loaded)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr


class TestLibraryEntryPoint:
    def test_empty_directory_raises_usage(self, tmp_path):
        with pytest.raises(LintUsageError):
            check_paths([str(tmp_path)])

    def test_directory_discovery_recurses_and_dedups(self, tmp_path):
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        target = nested / "stale.json"
        target.write_text(json.dumps({"schema": "repro-timeline-v0"}), encoding="utf-8")
        findings = check_paths([str(tmp_path), str(target)])
        assert [finding.rule_id for finding in findings] == ["RPR205"]

    def test_module_entrypoint_delegates(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--list-rules"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "RPR204" in result.stdout


class TestModuleParity:
    """`python -m repro.check`, `python -m repro check` and the console
    script share main()."""

    MODULES = (("repro.check",), ("repro", "check"))

    def run_modules(self, args, tmp_path):
        env = {"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"}
        return [
            subprocess.run(
                [sys.executable, "-m", *module, *args],
                capture_output=True,
                text=True,
                env=env,
                cwd=tmp_path,
            )
            for module in self.MODULES
        ]

    def test_module_entry_matches_main_for_findings(self, tmp_path):
        target = write_library_file(tmp_path, "bad.py", BAD_SNIPPET)
        for result in self.run_modules([str(target)], tmp_path):
            assert result.returncode == EXIT_FINDINGS
            assert "RPR102" in result.stdout

    def test_module_entry_matches_main_for_clean(self, tmp_path):
        target = write_library_file(tmp_path, "clean.py", CLEAN_SNIPPET)
        for result in self.run_modules([str(target)], tmp_path):
            assert result.returncode == EXIT_CLEAN
            assert "clean: 0 findings" in result.stdout

    def test_module_entry_usage_error(self, tmp_path):
        for result in self.run_modules([], tmp_path):
            assert result.returncode == EXIT_ERROR
