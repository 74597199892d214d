"""Preconfigured scenario builders and their validation rules."""

import math

import numpy as np
import pytest

from fiochain.dynamics import evolve_momentum
from fiochain.scenarios import (
    SCENARIOS,
    build_scenario,
    make_operators,
    validate_scenario,
)


def test_registry_contents():
    assert set(SCENARIOS) == {
        "identity",
        "isotropic_contraction",
        "surface_model",
        "block_root_model",
    }
    with pytest.raises(ValueError):
        build_scenario("no_such_scenario", {"hbar": 1e-2})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_validates(name):
    spec = build_scenario(name, {"hbar": 1e-2})
    validate_scenario(spec)  # must not raise
    assert spec.n_max >= 1
    assert spec.omega2.strictly_inside(spec.omega2_tilde)
    # xi0 sits on the momentum-cutoff plateau
    assert spec.symbol_tail.psi(spec.xi0) >= 0.9


@pytest.mark.parametrize("params", [{"xi0": [1.3]}, {"plateau_fraction": 0.2}])
def test_xi0_off_the_theta_plateau_refused(params):
    # xi0 = 1.3 is outside the plateau; a 0.2 plateau leaves psi(1.0) near 0.6
    with pytest.raises(ValueError, match="plateau"):
        build_scenario("isotropic_contraction", {"hbar": 1e-2, **params})


def test_hbar_is_required():
    with pytest.raises(ValueError):
        build_scenario("identity", {})


def test_unknown_params_rejected():
    with pytest.raises(ValueError):
        build_scenario("isotropic_contraction", {"hbar": 1e-2, "bogus": 1.0})


def test_make_operators_shares_instances():
    spec = build_scenario("isotropic_contraction", {"hbar": 2e-2, "n_points": 128})
    ops = make_operators(spec, 4)
    assert len(ops) == 4
    assert ops[1] is ops[2] is ops[3]  # tail operators are one shared object
    assert ops[0] is not ops[1]
    ops2 = make_operators(spec, 2)
    assert ops2[0] is ops[0] and ops2[1] is ops[1]  # cached across calls


def test_make_operators_respects_n_max():
    spec = build_scenario("surface_model", {"hbar": 1e-2})
    with pytest.raises(ValueError):
        make_operators(spec, spec.n_max + 1)
    with pytest.raises(ValueError):
        make_operators(spec, 0)


def test_orbit_stays_in_extended_window():
    for name in sorted(SCENARIOS):
        spec = build_scenario(name, {"hbar": 1e-2})
        chain = spec.chain(spec.n_max)
        orbit = evolve_momentum(chain, spec.xi0)
        assert spec.omega2_tilde.contains(orbit).all()


def test_identity_scenario_dynamics_frozen():
    spec = build_scenario("identity", {"hbar": 1e-3, "n_points": 640})
    chain = spec.chain(5)
    orbit = evolve_momentum(chain, spec.xi0)
    assert np.max(np.abs(orbit - orbit[0])) == 0.0
    assert spec.has_block and spec.step_map.block.r == 0


def test_contraction_rate_parameters():
    spec = build_scenario(
        "isotropic_contraction", {"hbar": 1e-2, "lam": 2.0, "tau": 0.1}
    )
    mu = float(spec.step_map.grad_p(np.array([1.0]))[0, 0])
    assert mu == pytest.approx(np.exp(-0.2), rel=1e-14)


def test_surface_model_block_structure():
    spec = build_scenario("surface_model", {"hbar": 1e-2})
    assert spec.grid.dimension == 2
    assert spec.has_block and spec.step_map.block.r == 1
    # leaf direction is the second momentum axis; its step is autonomous
    b = spec.step_map.block
    xt = np.array([0.5])
    full = spec.step_map.p(np.array([0.2, 0.5]))
    assert float(np.asarray(b.tilde_p(xt)).reshape(())) == pytest.approx(full[1], rel=1e-12)


def test_surface_model_eta_bounds():
    with pytest.raises(ValueError):
        build_scenario("surface_model", {"hbar": 1e-2, "eta": 1.5})
    with pytest.raises(ValueError):
        build_scenario("surface_model", {"hbar": 1e-2, "eta": 0.0})


def test_block_root_model_rates():
    spec = build_scenario(
        "block_root_model",
        {"hbar": 1e-2, "contracted_rates": [0.6], "leaf_rates": [0.0]},
    )
    assert spec.grid.dimension == 2
    J = spec.step_map.grad_p(np.array([0.3, 0.6]))
    assert J[0, 0] == pytest.approx(np.exp(-0.7 * 0.6), rel=1e-13)
    assert J[1, 1] == pytest.approx(1.0)


def test_block_root_model_dimension_cap():
    with pytest.raises(ValueError):
        build_scenario(
            "block_root_model",
            {"hbar": 1e-2, "contracted_rates": [0.5] * 3, "leaf_rates": [0.0] * 2},
        )


def test_window_too_small_is_refused():
    # coarse grid at small hbar: the momentum window cannot hold omega2_tilde
    with pytest.raises(ValueError, match="window"):
        build_scenario("isotropic_contraction", {"hbar": 5e-3, "n_points": 128})


def test_grid_parameters_flow_through():
    spec = build_scenario("isotropic_contraction", {"hbar": 1e-2, "n_points": 256})
    assert spec.grid.n_points == 256
    assert spec.params["hbar"] == 1e-2


@pytest.mark.parametrize(
    "name, bad",
    [
        ("isotropic_contraction", {"n_points": 128.9}),
        ("isotropic_contraction", {"n_points": True}),
        ("isotropic_contraction", {"n_max": "7"}),
        ("isotropic_contraction", {"n_max": 7.0}),
        ("isotropic_contraction", {"half_width": "1.0"}),
        ("isotropic_contraction", {"half_width": [math.nan]}),
        ("isotropic_contraction", {"plateau_fraction": math.nan}),
        ("isotropic_contraction", {"plateau_fraction": "0.5"}),
        ("isotropic_contraction", {"xi0": ["1.0"]}),
        ("isotropic_contraction", {"xi0": [True]}),
        ("isotropic_contraction", {"lam": True}),
        ("isotropic_contraction", {"tau": "0.35"}),
        ("isotropic_contraction", {"alpha_coeff": math.nan}),
        ("isotropic_contraction", {"hbar": "0.02"}),
        ("identity", {"dimension": 1.0}),
        ("identity", {"dimension": True}),
        ("surface_model", {"eta": "0.4"}),
        ("block_root_model", {"contracted_rates": [True]}),
        ("block_root_model", {"leaf_rates": 0.0}),
        ("block_root_model", {"tau": math.inf}),
    ],
)
def test_mistyped_params_refused(name, bad):
    # refused with the parameter named, never coerced by int() or float()
    key = next(iter(bad))
    with pytest.raises(ValueError, match=key):
        build_scenario(name, {"hbar": 2e-2, **bad})


def test_numeric_params_of_any_numeric_type_accepted():
    spec = build_scenario(
        "isotropic_contraction",
        {"hbar": 2e-2, "n_points": np.int64(128), "half_width": [1.0], "xi0": np.array([1.0])},
    )
    assert spec.grid.n_points == 128 and spec.grid.half_width == (1.0,)
