"""telulab: an activation-function laboratory.

Closed-form kernels for TeLU and seven comparison activations, numeric
verifiers for the mathematical properties claimed of TeLU, a minimal
reverse-mode autodiff engine, the standard optimizer quartet with step
decay, CIFAR binary ingestion plus synthetic data, and a reproducible
experiment harness (multi-seed trials, grid search, loss-landscape and
Fisher probes).
"""

import os

# The engine runs one thread per usable CPU, so BLAS threads inside each
# GEMM would only oversubscribe the cores.  Set before numpy loads; a value
# already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .kernels import (
    ALL_KINDS,
    GELU,
    LOGISH,
    MISH,
    RELU,
    SILU,
    SMISH,
    TELU,
    ActivationKind,
    derivative,
    elu,
    parse_kind,
    second_derivative,
    value,
)

__all__ = [
    "__version__",
    "ActivationKind",
    "ALL_KINDS",
    "TELU",
    "RELU",
    "GELU",
    "SILU",
    "MISH",
    "LOGISH",
    "SMISH",
    "elu",
    "parse_kind",
    "value",
    "derivative",
    "second_derivative",
]
