"""Grover-search verification of binary matrix products (QVMP).

Exact F2 linear algebra, a gate-level circuit IR, a sparse statevector
simulator on NumPy, search-circuit builders, and an experiment driver
with a CLI.

Importing the package loads the construction stack only: the algebra,
the IR, the builders and the driver, none of which needs NumPy. The
simulator module, and NumPy with it, loads on first use: at the first
access to one of its names below (``run``, ``statevector``, ...) or the
first call that simulates (``qvmp_verify``, ``scan_success_probability``).
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

# names resolved from the simulator module at first access (PEP 562)
_SIMULATOR_NAMES = ("Histogram", "Statevector", "probabilities", "run", "statevector")

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


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        value = globals()[name] = getattr(simulator, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SIMULATOR_NAMES))
