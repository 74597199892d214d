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


@pytest.mark.parametrize(
    "scenario, code", [("isotropic_contraction", 0), ("block_root_model", 2)]
)
def test_norm_working_set_runs_each_scenario_on_its_own_grid(monkeypatch, capsys, scenario, code):
    # no --n-points: the scenario's own grid, whose point count is printed; a
    # config the CLI refuses returns its exit code and message, not a traceback
    monkeypatch.setattr(sys, "argv", [norm_working_set.__file__, "--scenario", scenario])
    assert norm_working_set.main() == code
    out, err = capsys.readouterr()
    if code == 0:
        assert f"{scenario} 512 points per axis" in out
    else:
        assert out == "" and "increase n_points" in err
