"""Exact integer solutions of X + Y + Z = s, X^3 + Y^3 + Z^3 = c.

The solver reduces each instance to a divisor enumeration plus one integer
quadratic per admissible pivot; an independent brute-force oracle, a
derivation-trace emitter, and a parallel grid scanner round out the kit.
"""

from .intmath import (
    Factorization,
    IncompleteFactorizationError,
    factorize,
    icbrt,
    isqrt,
    perfect_square_root,
    signed_divisors,
)
from .oracle import brute_force
from .scan import ScanRecord, scan_grid
from .solver import (
    CandidateZ,
    SolutionSet,
    Triple,
    TripleSystem,
    candidate_zs,
    completeness_bound,
    solve,
    solve_quadratic_for_x,
    verify,
)
from .trace import TraceStep, derive_trace, render, solve_linear_diophantus

__version__ = "0.1.0"

__all__ = [
    "CandidateZ",
    "Factorization",
    "IncompleteFactorizationError",
    "ScanRecord",
    "SolutionSet",
    "TraceStep",
    "Triple",
    "TripleSystem",
    "brute_force",
    "candidate_zs",
    "completeness_bound",
    "derive_trace",
    "factorize",
    "icbrt",
    "isqrt",
    "perfect_square_root",
    "render",
    "scan_grid",
    "signed_divisors",
    "solve",
    "solve_linear_diophantus",
    "solve_quadratic_for_x",
    "verify",
]
