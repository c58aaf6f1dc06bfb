"""FLOAT001 fixtures: float equality in dsp/, vrm/, sdr/ and em/ scopes."""

from __future__ import annotations

from .conftest import codes


class TestFloat001:
    def test_float_literal_equality_flagged(self, make_tree):
        _, lint = make_tree(
            {
                "repro/dsp/mod.py": """
                def check(x):
                    return x == 0.5
                """
            }
        )
        report = lint(select=["FLOAT001"])
        assert codes(report) == ["FLOAT001"]
        assert "isclose" in report.active[0].message

    def test_vrm_scope_and_not_equal_flagged(self, make_tree):
        _, lint = make_tree(
            {
                "repro/vrm/mod.py": """
                def check(duty):
                    return duty != 1.0
                """
            }
        )
        assert codes(lint(select=["FLOAT001"])) == ["FLOAT001"]

    def test_sdr_and_em_scopes_flagged(self, make_tree):
        _, lint = make_tree(
            {
                "repro/sdr/mod.py": """
                def check(lo):
                    return lo == 0.0
                """,
                "repro/em/mod.py": """
                def check(gain):
                    return gain != 1.0
                """,
            }
        )
        assert codes(lint(select=["FLOAT001"])) == ["FLOAT001", "FLOAT001"]

    def test_float_call_and_binop_flagged(self, make_tree):
        _, lint = make_tree(
            {
                "repro/dsp/mod.py": """
                def check(x, y, n):
                    return x == float(n) or y == n * 0.25
                """
            }
        )
        assert codes(lint(select=["FLOAT001"])) == ["FLOAT001", "FLOAT001"]

    def test_integer_comparison_clean(self, make_tree):
        _, lint = make_tree(
            {
                "repro/dsp/mod.py": """
                def check(n, m):
                    return n == 0 and m != 4096
                """
            }
        )
        assert codes(lint(select=["FLOAT001"])) == []

    def test_outside_scope_clean(self, make_tree):
        _, lint = make_tree(
            {
                "repro/power/mod.py": """
                def check(x):
                    return x == 0.5
                """
            }
        )
        assert codes(lint(select=["FLOAT001"])) == []

    def test_suppressed_sentinel_check(self, make_tree):
        _, lint = make_tree(
            {
                "repro/dsp/mod.py": """
                def noise_off(amplitude):
                    return amplitude == 0.0  # lint: disable=FLOAT001
                """
            }
        )
        report = lint(select=["FLOAT001"])
        assert codes(report) == []
        assert len(report.suppressed) == 1
