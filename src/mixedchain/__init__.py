"""Exact decomposition engine for a mixed quantum-supergroup spin chain.

The chain is a mixed tensor power of the two dual three-dimensional
fundamental modules of the rank-(2|1) quantum supergroup at generic q.
The package computes its indecomposable content, realizes the walled
Brauer generators on it, and assembles and verifies the full bimodule
decomposition over the quantum group and its centralizer.

The public names below are exported lazily (PEP 562): importing the package
loads no submodule, and each name imports its submodule on first access, so
a command or script loads only the layers it uses.
"""

import importlib

_EXPORTS = {
    "GrothVector": "fusion", "chain_decompose": "fusion", "dim_of_groth": "fusion",
    "fuse_with_f": "fusion", "fuse_with_v": "fusion",
    "EvalPoint": "qarith", "LaurentPoly": "qarith", "QScalar": "qarith",
    "eval_points": "qarith", "qint": "qarith",
    "R": "uqmod", "RLabel": "uqmod", "Z": "uqmod", "ZLabel": "uqmod",
    "build_projective": "uqmod", "build_simple": "uqmod", "dim_bar": "uqmod",
    "dim_r": "uqmod", "dim_z": "uqmod", "gl2_decomposition": "uqmod",
    "weight_multiset": "uqmod",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
