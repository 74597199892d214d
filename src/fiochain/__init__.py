"""Chains of foliation-preserving oscillatory-integral operators on a grid.

Construction and application of the quantized steps, closed-form leading-order
propagation of plane waves, measured chain norms against analytic decay
bounds, and almost-orthogonal block decompositions of the chain in leading
form.  See the README for the experiment entry points.
"""

from .grid import (
    GridSpec,
    Wavefunction,
    plane_wave,
    hbar_fourier,
    hbar_inverse_fourier,
    l2_norm,
)
from .dynamics import (
    BlockSplit,
    ChainSpec,
    MomentumMap,
    evolve_momentum,
    jacobian_chain,
    phase_cocycle,
    tilde_jacobian_chain,
)
from .symbols import Box, CutoffBump, SymbolSpec, smoothstep
from .fio import DenseOperator, FioOperator, apply_fio, chain_apply
from .wkb import WkbResidual, wkb_ansatz, wkb_residual
from .bounds import (
    NormEstimate,
    decay_rate_fit,
    measure_chain_norms,
    operator_norm,
    thm2_bound,
    thm3_bound,
    trivial_bound,
)
from .cotlar import (
    BlockFamily,
    PartitionOfUnity,
    build_block_family,
    chi1,
    cotlar_stein_bound,
    offdiagonal_decay_fit,
)
from .scenarios import ScenarioSpec, build_scenario, make_operators
from .config import ConfigError, ExperimentConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "Wavefunction",
    "plane_wave",
    "hbar_fourier",
    "hbar_inverse_fourier",
    "l2_norm",
    "BlockSplit",
    "ChainSpec",
    "MomentumMap",
    "evolve_momentum",
    "jacobian_chain",
    "phase_cocycle",
    "tilde_jacobian_chain",
    "Box",
    "CutoffBump",
    "SymbolSpec",
    "smoothstep",
    "DenseOperator",
    "FioOperator",
    "apply_fio",
    "chain_apply",
    "WkbResidual",
    "wkb_ansatz",
    "wkb_residual",
    "NormEstimate",
    "decay_rate_fit",
    "measure_chain_norms",
    "operator_norm",
    "thm2_bound",
    "thm3_bound",
    "trivial_bound",
    "BlockFamily",
    "PartitionOfUnity",
    "build_block_family",
    "chi1",
    "cotlar_stein_bound",
    "offdiagonal_decay_fit",
    "ScenarioSpec",
    "build_scenario",
    "make_operators",
    "ExperimentConfig",
    "ConfigError",
    "load_config",
    "__version__",
]
