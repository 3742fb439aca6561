"""The ``repro check`` CLI: classification, exit codes, repo gate."""

import json

import pytest

from repro.check.cli import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    check_paths,
    failing,
    main,
)
from repro.lint.findings import LintUsageError

REPO_TARGETS = [
    "examples/specs",
    "tests/data/equivalence_goldens.json",
]


class TestRepoGate:
    def test_repo_specs_and_artifacts_audit_clean(self):
        """Tier-1 gate: the repo's own files carry no invariant findings."""
        findings = check_paths(REPO_TARGETS)
        assert [f for f in findings if f.severity == "error"] == []
        assert failing(findings) == []

    def test_cli_exits_clean_on_repo_files(self, capsys):
        assert main(REPO_TARGETS) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out


class TestExitCodes:
    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == EXIT_ERROR
        assert "no paths" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["does/not/exist.json"]) == EXIT_ERROR
        assert "no such file" in capsys.readouterr().err

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


class TestOutputs:
    def test_json_format_parses(self, tmp_path, capsys):
        target = tmp_path / "stale.json"
        target.write_text(json.dumps({"schema": "repro-trace-v1"}), encoding="utf-8")
        assert main(["--format", "json", str(target)]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "RPR205"

    def test_list_invariants_prints_catalog(self, capsys):
        assert main(["--list-invariants"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("RPR201", "RPR202", "RPR203", "RPR204", "RPR205", "RPR206"):
            assert code in out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "invariant" in capsys.readouterr().out.lower()


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
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--list-invariants"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "RPR204" in result.stdout
