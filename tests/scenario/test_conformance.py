"""The scenario conformance gate.

Deliberately thin: the checks live in :mod:`repro.scenario.conformance`
(so third-party plugins can reuse them), and this module only crosses
``list_scenarios()`` with ``CONFORMANCE_CHECKS``.  Registering a new
scenario adds its full conformance coverage with zero new test code.

Each scenario's run set (reference + repeat + permuted) is
built once per session and shared by all of its checks.
"""

from __future__ import annotations

import pytest

from repro.scenario import list_scenarios
from repro.scenario.conformance import CONFORMANCE_CHECKS, execute_runs

_RUNS = {}


def _runs(name):
    if name not in _RUNS:
        _RUNS[name] = execute_runs(name)
    return _RUNS[name]


@pytest.mark.parametrize("check", sorted(CONFORMANCE_CHECKS))
@pytest.mark.parametrize("name", list_scenarios())
def test_conformance(name, check):
    CONFORMANCE_CHECKS[check](_runs(name))
