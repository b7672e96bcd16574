"""Numerical K-homology of rotation algebras.

Continued-fraction convergents, integer-lattice exact sequences, matrix
representations of the noncommutative torus, Fredholm-module index
pairings, and the AF-tower trace/pairing machinery, with a batch CLI.
"""

__version__ = "0.1.0"

import importlib

from . import errors
from .af_tower import (
    BratteliTower,
    build_tower,
    inverse_limit_coefficients,
    pairing_along_tower,
    push_k0_class,
    trace_weights,
)
from .exact_arith import (
    CFExpansion,
    ConvergentTable,
    cf_expand,
    convergents,
    golden_string,
    parse_theta,
)
from .zlattice import (
    CyclicSequence,
    IntegerMatrixMap,
    builtin_khomology_sequence,
    builtin_ktheory_sequence,
    hermite_normal_form,
    smith_normal_form,
)

#: the numeric layer's public names and their modules, imported on first use
#: (PEP 562), so that the exact layers and the CLI's exact subcommands never
#: load numpy
_NUMERIC = {
    **dict.fromkeys(("PairingResult", "canonical_even", "canonical_odd", "conjugate_module",
                     "dirac_even_pairing", "dirac_module", "even_pairing", "odd_pairing"),
                    "fredholm"),
    **dict.fromkeys(("TorusPolynomial", "clock_shift", "dirac_data", "rieffel_projection",
                     "truncated_rep"), "torus_rep"),
}


def __getattr__(name: str):
    if name in _NUMERIC:
        value = getattr(importlib.import_module(f"{__name__}.{_NUMERIC[name]}"), name)
    elif name in _NUMERIC.values():  # ncg_torus.fredholm, ncg_torus.torus_rep
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


__all__ = [
    "errors",
    "__version__",
    "BratteliTower",
    "CFExpansion",
    "ConvergentTable",
    "CyclicSequence",
    "IntegerMatrixMap",
    "build_tower",
    "builtin_khomology_sequence",
    "builtin_ktheory_sequence",
    "cf_expand",
    "convergents",
    "golden_string",
    "hermite_normal_form",
    "inverse_limit_coefficients",
    "pairing_along_tower",
    "parse_theta",
    "push_k0_class",
    "smith_normal_form",
    "trace_weights",
    *_NUMERIC,
]
