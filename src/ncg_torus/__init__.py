"""Numerical K-homology of rotation algebras.

Continued-fraction convergents, integer-lattice exact sequences, matrix
representations of the noncommutative torus, Fredholm-module index
pairings, and the AF-tower trace/pairing machinery, with a batch CLI.
"""

__version__ = "0.1.0"

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
from .fredholm import (
    PairingResult,
    canonical_even,
    canonical_odd,
    conjugate_module,
    dirac_even_pairing,
    dirac_module,
    even_pairing,
    odd_pairing,
)
from .torus_rep import (
    TorusPolynomial,
    clock_shift,
    dirac_data,
    rieffel_projection,
    truncated_rep,
)
from .zlattice import (
    CyclicSequence,
    IntegerMatrixMap,
    builtin_khomology_sequence,
    builtin_ktheory_sequence,
    hermite_normal_form,
    smith_normal_form,
)

__all__ = [
    "errors",
    "__version__",
    "BratteliTower",
    "CFExpansion",
    "ConvergentTable",
    "CyclicSequence",
    "IntegerMatrixMap",
    "PairingResult",
    "TorusPolynomial",
    "build_tower",
    "builtin_khomology_sequence",
    "builtin_ktheory_sequence",
    "canonical_even",
    "canonical_odd",
    "cf_expand",
    "clock_shift",
    "conjugate_module",
    "convergents",
    "dirac_data",
    "dirac_even_pairing",
    "dirac_module",
    "even_pairing",
    "golden_string",
    "hermite_normal_form",
    "inverse_limit_coefficients",
    "odd_pairing",
    "pairing_along_tower",
    "parse_theta",
    "push_k0_class",
    "rieffel_projection",
    "smith_normal_form",
    "trace_weights",
    "truncated_rep",
]
