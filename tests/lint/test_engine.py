"""Engine semantics: selection, ordering, payload schema, baselines, gating."""

from __future__ import annotations

import json

import pytest

from repro.ir.parser import parse_function
from repro.lint import (
    LintConfigError,
    LintError,
    Severity,
    apply_baseline,
    lint_cache_key,
    lint_function,
    load_baseline,
    resolve_rule_codes,
    write_baseline,
)
from repro.lint.engine import BASELINE_SCHEMA, LINT_SCHEMA
from repro.profiling.synthetic import uniform_profile
from repro.target.registry import get_target

MESSY = """
func messy() {
entry:
  li v0, #1
  li v1, #2
  add v2, v9, #1
  ret v2
}
"""


@pytest.fixture
def messy():
    return parse_function(MESSY)


class TestSelection:
    def test_select_restricts_to_given_codes(self, messy):
        report = lint_function(messy, select=["R001"])
        assert {d.code for d in report.diagnostics} == {"R001"}
        assert list(report.rules_run) == ["R001"]

    def test_ignore_drops_codes(self, messy):
        report = lint_function(messy, ignore=["R002"])
        assert "R002" not in {d.code for d in report.diagnostics}
        assert "R002" not in report.rules_run

    def test_unknown_codes_raise_config_error(self, messy):
        with pytest.raises(LintConfigError, match="R999"):
            lint_function(messy, select=["R999"])
        with pytest.raises(LintConfigError, match="bogus"):
            resolve_rule_codes(ignore=["bogus"])

    def test_select_then_ignore_composes(self):
        rules = resolve_rule_codes(select=["R001", "R002"], ignore=["R002"])
        assert [r.code for r in rules] == ["R001"]


class TestOrdering:
    def test_diagnostics_sorted_by_location_then_code(self, messy):
        report = lint_function(messy)
        keys = [d.sort_key() for d in report.diagnostics]
        assert keys == sorted(keys)
        # The fixture has findings at entry:0 (dead v0), entry:1 (dead v1)
        # and entry:2 (uninitialized v9) — order is positional, not by code.
        assert [(d.instruction, d.code) for d in report.diagnostics] == [
            (0, "R002"),
            (1, "R002"),
            (2, "R001"),
        ]


class TestPayload:
    def test_report_payload_schema(self, messy):
        payload = lint_function(messy).payload()
        assert payload["schema"] == LINT_SCHEMA
        assert set(payload) == {
            "schema",
            "function",
            "rules_run",
            "counts",
            "diagnostics",
        }
        assert payload["function"] == "messy"
        assert payload["counts"] == {"error": 1, "warn": 2, "info": 0}
        for entry in payload["diagnostics"]:
            assert {"code", "severity", "rule", "function", "message"} <= set(entry)

    def test_canonical_bytes_round_trip_json(self, messy):
        report = lint_function(messy)
        decoded = json.loads(report.canonical_bytes())
        assert decoded == json.loads(json.dumps(report.payload()))

    def test_fingerprint_is_stable_hex(self, messy):
        fingerprint = lint_function(messy).fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # hex-decodable

    def test_render_mentions_every_finding(self, messy):
        report = lint_function(messy)
        text = report.render()
        for diagnostic in report.diagnostics:
            assert diagnostic.code in text


class TestLintError:
    def test_error_carries_structured_reports(self, messy):
        report = lint_function(messy)
        error = LintError([report])
        assert error.reports == (report,)
        assert "messy" in str(error)
        payload = error.payload()
        assert payload["schema"] == LINT_SCHEMA
        assert payload["reports"] == [report.payload()]


class TestBaseline:
    def test_round_trip_suppresses_known_findings(self, messy, tmp_path):
        report = lint_function(messy)
        path = tmp_path / "baseline.json"
        count = write_baseline(path, [report])
        assert count == len(report.diagnostics)
        suppressed = load_baseline(path)
        filtered = apply_baseline(report, suppressed)
        assert filtered.diagnostics == ()
        assert filtered.rules_run == report.rules_run

    def test_new_findings_survive_the_baseline(self, messy, tmp_path):
        clean = lint_function(messy, select=["R002"])
        path = tmp_path / "baseline.json"
        write_baseline(path, [clean])
        # Full run: the R001 finding is new relative to the baseline.
        filtered = apply_baseline(lint_function(messy), load_baseline(path))
        assert {d.code for d in filtered.diagnostics} == {"R001"}

    def test_baseline_schema_is_checked(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "nope/v9", "entries": {}}))
        with pytest.raises(ValueError, match=BASELINE_SCHEMA):
            load_baseline(path)

    def test_baseline_file_is_deterministic(self, messy, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_baseline(a, [lint_function(messy)])
        write_baseline(b, [lint_function(messy)])
        assert a.read_bytes() == b.read_bytes()


class TestCacheKey:
    def test_lint_key_is_namespaced_apart_from_compile(self, messy):
        from repro.ir.fingerprint import compile_options_token, procedure_cache_key

        machine = get_target("parisc")
        profile = uniform_profile(messy)
        lint_key = lint_cache_key(messy, profile, machine)
        compile_key = procedure_cache_key(
            messy,
            profile,
            compile_options_token(machine, "lint:" + ",".join(sorted(
                r.code for r in resolve_rule_codes())), (), False),
            kind="compile",
        )
        assert lint_key != compile_key

    def test_key_depends_on_rule_selection(self, messy):
        machine = get_target("parisc")
        profile = uniform_profile(messy)
        assert lint_cache_key(messy, profile, machine) != lint_cache_key(
            messy, profile, machine, select=["R001"]
        )

    def test_key_is_deterministic(self, messy):
        machine = get_target("tiny")
        profile = uniform_profile(messy)
        assert lint_cache_key(messy, profile, machine) == lint_cache_key(
            messy, profile, machine
        )


class TestSeverity:
    def test_weights_rank_error_first(self):
        # weight is a sort rank: 0 = most severe.
        assert Severity.ERROR.weight < Severity.WARN.weight < Severity.INFO.weight

    def test_str_is_the_wire_value(self):
        assert str(Severity.ERROR) == "error"
        assert str(Severity.WARN) == "warn"
        assert str(Severity.INFO) == "info"
