"""Suppression mechanism: noqa comments, reasons, RPR001 meta-findings."""

import textwrap

from repro.check.engine import failing, lint_source
from repro.check.reporters import render_json, render_text

LIB_PATH = "src/repro/analysis/snippet.py"

# Assembled so this test file itself never contains a live noqa comment.
NOQA = "# repro: " + "noqa"


def lint(source):
    return lint_source(textwrap.dedent(source), LIB_PATH)


class TestSuppression:
    def test_same_line_suppression_excluded_from_exit_findings(self):
        findings = lint(
            f"""
            def check(x):
                assert x >= 0  {NOQA} RPR103 — hypothesis shrinking helper
            """
        )
        assert failing(findings) == []
        assert len(findings) == 1
        assert findings[0].suppressed
        assert findings[0].suppress_reason == "hypothesis shrinking helper"

    def test_standalone_comment_covers_next_line(self):
        findings = lint(
            f"""
            {NOQA} RPR105 — shared scratch buffer, reset per call
            def collect(values=[]):
                return values
            """
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert failing(findings) == []

    def test_suppression_is_rule_specific(self):
        findings = lint(
            f"""
            def check(x):
                assert x >= 0 and x * 1000 < 5  {NOQA} RPR103 — checked
            """
        )
        ids = {(finding.rule_id, finding.suppressed) for finding in findings}
        assert ("RPR103", True) in ids
        assert ("RPR102", False) in ids  # units finding not covered
        assert len(failing(findings)) == 1

    def test_multiple_rule_ids_in_one_comment(self):
        findings = lint(
            f"""
            def check(x):
                assert x * 1000 >= 0  {NOQA} RPR102, RPR103 — both deliberate
            """
        )
        assert failing(findings) == []
        assert {finding.rule_id for finding in findings} == {"RPR102", "RPR103"}

    def test_reason_defaults_to_empty(self):
        findings = lint(
            f"""
            def check(x):
                assert x >= 0  {NOQA} RPR103
            """
        )
        assert findings[0].suppressed
        assert findings[0].suppress_reason == ""


class TestMalformedNoqa:
    def test_blanket_noqa_is_rpr001(self):
        findings = lint(f"x = 1  {NOQA}\n")
        assert [finding.rule_id for finding in findings] == ["RPR001"]
        assert not findings[0].suppressed

    def test_typoed_rule_id_is_rpr001(self):
        findings = lint(f"x = 1  {NOQA} RPR10\n")
        assert [finding.rule_id for finding in findings] == ["RPR001"]

    def test_junk_in_id_section_is_rpr001(self):
        findings = lint(f"x = 1  {NOQA} RPR103 oops — reason\n")
        assert "RPR001" in [finding.rule_id for finding in findings]

    def test_rpr001_counts_toward_exit_code(self):
        findings = lint(f"x = 1  {NOQA}\n")
        assert failing(findings) != []

    def test_noqa_inside_string_literal_ignored(self):
        findings = lint(f'MESSAGE = "{NOQA} RPR10"\n')
        assert findings == []


class TestStalePragmaRPR002:
    def test_pragma_that_never_fires_is_stale(self):
        findings = lint(f"x = 1  {NOQA} RPR103 — obsolete\n")
        assert [finding.rule_id for finding in findings] == ["RPR002"]
        assert "RPR103" in findings[0].message
        assert not findings[0].suppressed

    def test_partially_stale_pragma_names_only_dead_ids(self):
        findings = lint(
            f"""
            def check(x):
                assert x >= 0  {NOQA} RPR102, RPR103 — both deliberate
            """
        )
        stale = [finding for finding in findings if finding.rule_id == "RPR002"]
        assert len(stale) == 1
        assert "RPR102" in stale[0].message
        assert "RPR103" not in stale[0].message

    def test_used_pragma_is_not_stale(self):
        findings = lint(
            f"""
            def check(x):
                assert x >= 0  {NOQA} RPR103 — deliberate
            """
        )
        assert [finding.rule_id for finding in findings] == ["RPR103"]

    def test_standalone_pragma_used_by_next_line_is_not_stale(self):
        findings = lint(
            f"""
            {NOQA} RPR105 — shared scratch buffer, reset per call
            def collect(values=[]):
                return values
            """
        )
        assert [finding.rule_id for finding in findings] == ["RPR105"]

    def test_stale_pragma_counts_toward_exit_code(self):
        findings = lint(f"x = 1  {NOQA} RPR103 — obsolete\n")
        assert failing(findings) != []

    def test_restricted_select_skips_staleness(self):
        findings = lint_source(
            f"x = 1  {NOQA} RPR103 — obsolete\n", LIB_PATH, select=["RPR101"]
        )
        assert findings == []


class TestReporters:
    def test_text_hides_suppressed_by_default(self):
        findings = lint(
            f"""
            def check(x):
                assert x >= 0  {NOQA} RPR103 — deliberate
            """
        )
        report = render_text(findings)
        assert "RPR103" not in report
        assert "clean: 0 findings; 1 suppressed" in report

    def test_text_show_suppressed_lists_them_with_reason(self):
        findings = lint(
            f"""
            def check(x):
                assert x >= 0  {NOQA} RPR103 — deliberate
            """
        )
        report = render_text(findings, show_suppressed=True)
        assert "suppressed (1):" in report
        assert "RPR103" in report
        assert "deliberate" in report

    def test_json_show_suppressed_adds_section(self):
        import json

        findings = lint(
            f"""
            def check(x):
                assert x >= 0  {NOQA} RPR103 — deliberate
            """
        )
        bare = json.loads(render_json(findings))
        assert bare["counts"]["total"] == 0
        assert bare["counts"]["suppressed"] == 1
        assert "suppressed_findings" not in bare
        full = json.loads(render_json(findings, show_suppressed=True))
        assert full["suppressed_findings"][0]["rule"] == "RPR103"
        assert full["suppressed_findings"][0]["suppress_reason"] == "deliberate"
