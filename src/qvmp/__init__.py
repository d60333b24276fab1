"""Grover-search verification of binary matrix products (QVMP).

Exact F2 linear algebra, a gate-level circuit IR, a statevector
simulator that starts sparse and hands off to a dense NumPy array,
search-circuit builders, and an experiment driver with a CLI.
"""
from .bitlinalg import (
    BitMatrix,
    BitVector,
    freivalds,
    matmul,
    matvec,
    mismatch_rows,
    partition_columns,
)
from .circuit import (
    Circuit,
    compose,
    depth,
    gate_counts,
    inverse,
    lower,
    lowered_metrics,
)
from .grover import (
    GroverPlan,
    QvmpInstance,
    build_diffuser,
    build_grover_search,
    build_inner_product,
    build_oracle,
    build_qrom,
    plan_iterations,
    scan_success_probability,
)
from .runner import ExperimentConfig, VerdictReport, generate_instance, qvmp_verify
from .simulator import Histogram, Statevector, probabilities, run, statevector

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitVector",
    "freivalds",
    "matmul",
    "matvec",
    "mismatch_rows",
    "partition_columns",
    "Circuit",
    "compose",
    "depth",
    "gate_counts",
    "inverse",
    "lower",
    "lowered_metrics",
    "GroverPlan",
    "QvmpInstance",
    "build_diffuser",
    "build_grover_search",
    "build_inner_product",
    "build_oracle",
    "build_qrom",
    "plan_iterations",
    "scan_success_probability",
    "ExperimentConfig",
    "VerdictReport",
    "generate_instance",
    "qvmp_verify",
    "Histogram",
    "Statevector",
    "probabilities",
    "run",
    "statevector",
    "__version__",
]
