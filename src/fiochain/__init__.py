"""Chains of foliation-preserving oscillatory-integral operators on a grid.

Construction and application of the quantized steps, closed-form leading-order
propagation of plane waves, measured chain norms against analytic decay
bounds, and almost-orthogonal block decompositions of the chain in leading
form.  Import each name from its own module (see the README's library layout)
and the experiment entry points from ``fiochain.cli``.
"""

# perfbench/tests/test_perfbench.py reads these two; they can go at its next change
from .fio import FioOperator
from .cotlar import BlockFamily

__version__ = "0.1.0"
