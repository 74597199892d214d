"""The example studies under scripts/ run at their default arguments."""

import sys

import decay_rate_study
import norm_working_set
import pytest
import residual_order_study


@pytest.mark.parametrize("study", [decay_rate_study, residual_order_study, norm_working_set])
def test_study_runs_at_defaults(monkeypatch, study):
    monkeypatch.setattr(sys, "argv", [study.__file__])
    assert study.main() == 0
