"""FLOAT001: exact equality on float expressions in DSP/VRM code.

The DSP and VRM layers are where resampling, filtering and switching
arithmetic accumulate rounding error; ``==``/``!=`` against a float
expression there is either a latent flake (tolerances belong in
``np.isclose``/``math.isclose``) or an exact sentinel check that
deserves an explicit ``# lint: disable=FLOAT001`` stating so.
"""

from __future__ import annotations

import ast
from typing import List

from ..config import LintConfig
from ..findings import Finding
from ..project import Project, SourceFile
from .base import Rule, dotted_name

_FLOAT_CONSTANTS = {
    "math.pi",
    "math.e",
    "math.inf",
    "math.nan",
    "math.tau",
    "np.pi",
    "np.e",
    "np.inf",
    "np.nan",
    "numpy.pi",
    "numpy.e",
    "numpy.inf",
    "numpy.nan",
}

_FLOAT_CALLS = {"float", "np.float64", "np.float32", "numpy.float64"}


def _is_floatish(node: ast.AST) -> bool:
    """Conservatively: does this expression obviously produce a float?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        return dotted in _FLOAT_CALLS
    dotted = dotted_name(node)
    return dotted in _FLOAT_CONSTANTS


class FloatEqualityRule(Rule):
    """FLOAT001: ``==``/``!=`` where one side is float-valued."""

    code = "FLOAT001"
    name = "float-equality"
    description = (
        "exact ==/!= on float expressions in dsp/, vrm/, sdr/ and em/ "
        "code is a rounding-error flake waiting to happen"
    )

    def check_file(
        self, sf: SourceFile, project: Project, config: LintConfig
    ) -> List[Finding]:
        if not any(
            sf.relpath.startswith(scope) for scope in config.float_eq_scopes
        ):
            return []
        findings: List[Finding] = []
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_floatish(left) or _is_floatish(right):
                    findings.append(
                        self.finding(
                            sf,
                            node,
                            "exact float equality; use np.isclose / "
                            "math.isclose with an explicit tolerance, or "
                            "suppress with a comment naming the exact-"
                            "sentinel intent",
                        )
                    )
        return findings
