"""Step-by-step derivation emitter.

Produces the reduction for any instance (s, c) as an ordered list of
algebraic steps with the concrete numbers substituted in, renderable as
plain text, markdown, or newline-delimited records.  Equations are plain
ASCII (caret for powers, slash for the remainder fraction) so renderings
are diff-stable.
"""

from __future__ import annotations

from typing import NamedTuple

from .solver import SolutionSet, Triple, TripleSystem, _closure, _discriminants, _roots, _tested_ks

__all__ = [
    "RENDER_FORMATS",
    "TraceStep",
    "derive_trace",
    "render",
    "solve_linear_diophantus",
]

RENDER_FORMATS = ("plain", "markdown", "structured-records")


class TraceStep(NamedTuple):
    index: int
    label: str
    equation_text: str
    note: str


def solve_linear_diophantus(a: int, b: int, c: int) -> int | None:
    """The integer X with a = b*X + c, or None when b does not divide a - c."""
    if b == 0:
        raise ValueError("coefficient b must be nonzero")
    q, r = divmod(a - c, b)
    return q if r == 0 else None


def _term(coefficient: int, symbol: str = "") -> str:
    """Render ' + 3Z' / ' - Z' / ' + 7' style trailing terms; '' for zero."""
    if coefficient == 0:
        return ""
    sign = " + " if coefficient > 0 else " - "
    magnitude = abs(coefficient)
    if symbol and magnitude == 1:
        return f"{sign}{symbol}"
    return f"{sign}{magnitude}{symbol}"


def _fraction(numerator: int, over: str, flipped: str) -> str:
    """Sign-simplified fraction numerator / (over), given the rendered
    denominator over and its negation flipped.

    Negative numerators take the flipped denominator so the rendered
    numerator stays positive.
    """
    if numerator == 0:
        return "0"
    if numerator < 0:
        return f"{-numerator}/({flipped})"
    return f"{numerator}/({over})"


def format_triple(triple: Triple) -> str:
    return f"({triple.x}, {triple.y}, {triple.z})"


def format_solution_set(solution_set: SolutionSet) -> str:
    if solution_set.kind == "infinite_family":
        s = solution_set.family_anchor
        return f"infinite family: all permutations of ({s}, t, -t) for every integer t"
    assert solution_set.triples is not None
    body = ", ".join(format_triple(t) for t in solution_set.triples)
    return f"(X, Y, Z) in {{{body}}}"


def derive_trace(system: TripleSystem) -> list[TraceStep]:
    """The full derivation for the instance, in fixed step order.

    Four steps reduce the system to one quadratic in X per pivot Z.  With
    d0 = c - s^3 = 0 a factor step and the infinite family follow.
    Otherwise the trace renders solve()'s pivot plan, _tested_ks, and makes
    solve()'s other solver calls in solve()'s order.  The plan alone decides
    whether 3 | d0, which the substitute and divisibility steps state, and
    gives the sign step its shift.  When 3 | d0, the cap step, the sign step
    where the sign rule applies and the residue step where the residue rule
    drops a listed pivot state those results with this system's numbers;
    the solver's module docstring proves them.  The candidates step lists
    the tested pivots with z ascending, one step per pivot tests its
    quadratic, and the solutions step closes the roots under the
    permutations.  So the trace raises IncompleteFactorizationError exactly
    where solve() does.
    """
    s, c = system.s, system.c
    d0 = system.d0
    plan = _tested_ks(s, d0) if d0 else None
    steps: list[TraceStep] = []

    def add(label: str, equation_text: str, note: str) -> None:
        steps.append(TraceStep(len(steps) + 1, label, equation_text, note))

    s_minus = "-" if s == 0 else f"{s} - "
    s_minus_z = f"{s_minus}Z"
    z_minus_s = f"Z{_term(-s)}"
    z_minus_s_coefficient = "Z" if s == 0 else f"({z_minus_s})"

    add(
        "rearrange-linear",
        f"X + Y = {s_minus_z}",
        "Isolate the pivot Z in the sum constraint.",
    )
    add(
        "rearrange-cubic",
        f"X^3 + Y^3 = {c} - Z^3",
        "Isolate the pivot Z in the cube-sum constraint.",
    )

    divide_lhs = f"X^2 + Y^2 - XY - Z^2{_term(-s, 'Z')}{_term(-s * s)}"
    add(
        "divide",
        f"{divide_lhs} = {_fraction(d0, s_minus_z, z_minus_s)}",
        "X^3 + Y^3 factors as (X + Y)(X^2 - XY + Y^2), so dividing the two "
        "rearranged constraints leaves a polynomial plus this remainder term.",
    )

    substitute_lhs = f"X^2 + {z_minus_s_coefficient}X{_term(-s, 'Z')}"
    # the remainder, in lowest terms where the plan admits pivots
    if plan is None:
        substitute_rhs = _fraction(d0, f"3({s_minus_z})", f"3({z_minus_s})")
    else:
        substitute_rhs = _fraction(plan[0], s_minus_z, z_minus_s)
    add(
        "substitute",
        f"{substitute_lhs} = {substitute_rhs}",
        f"Substituting Y = {s_minus_z} - X collapses the identity to a "
        "quadratic in X alone.",
    )

    if d0 == 0:
        factor_left = "X" if s == 0 else f"(X{_term(-s)})"
        add(
            "factor",
            f"{factor_left}(X + Z) = 0",
            f"With c = s^3 = {c} the remainder vanishes and the quadratic "
            "factors: X = s forces Y = -Z, and X = -Z forces Y = s.",
        )
        add(
            "solutions",
            format_solution_set(SolutionSet.infinite_family(s)),
            "Every choice of integer t gives a solution, so the set is infinite.",
        )
        return steps

    if plan is None:
        add(
            "divisibility",
            f"3({s_minus_z}) | {d0}",
            f"3({s_minus_z}) is a multiple of 3 but {d0} is not, so no "
            "integer Z is admissible.",
        )
        ks, discriminants = [], []
        candidates_note = f"No pivot is admissible, because 3 does not divide {d0}."
    else:
        reduced, cap, a, signs, divisors, ks = plan
        one_sign = len(signs) == 1
        add(
            "divisibility",
            f"{z_minus_s_coefficient} | {abs(reduced)}",
            "The left side of the quadratic is an integer for integer X, so "
            "the remainder must be an integer as well.",
        )
        add(
            "cap",
            f"{reduced} = -({s_minus}X)({s_minus}Y)({s_minus}Z), |{z_minus_s}| <= {cap}",
            "Since (X + Y + Z)^3 - X^3 - Y^3 - Z^3 = 3(X + Y)(Y + Z)(Z + X) and "
            f"X + Y = {s_minus_z}, every solution makes {reduced} this product of "
            "three nonzero factors.  The factor of least absolute value has cube "
            f"at most {abs(reduced)}, so each solution has a coordinate Z with "
            f"|{z_minus_s}| <= {cap}, and closing under the permutations finds "
            "its other orderings.",
        )
        if one_sign:
            tested, rootless = ("<", ">") if reduced > 0 else (">", "<")
            n4 = 4 * abs(reduced)
            if a <= 0:
                bound = (
                    f"is at most (|k| + 2|s|)^2 - {n4}/|k|, which is negative for "
                    f"every |k| <= {cap}, since t(t + 2|s|)^2 rises with t"
                )
            else:
                if 3 * cap <= 2 * a:
                    peak = f"rises with t for t <= {2 * a}/3, and {cap} <= {2 * a}/3"
                else:
                    peak = (
                        f"peaks at t = {2 * a}/3 with 32*{a}^3/27, below 4*{cap}^3 <= {n4} "
                        f"as {cap} > {2 * a}/3, then falls to 0 at t = {2 * a} and rises after"
                    )
                bound = (
                    f"is (|k| - {2 * a})^2 - {n4}/|k|, which is negative for every "
                    f"|k| <= {cap}, since t(t - {2 * a})^2 {peak}"
                )
            add(
                "sign",
                f"{cap}({cap}{_term(-2 * a)})^2 < {n4}, so Z {tested} {s}",
                f"When k = {s_minus_z} and {reduced} have opposite signs, the "
                f"discriminant (k - 2s)^2 + 4({reduced})/k {bound}.  So no "
                f"pivot with Z {rootless} {s} has a root.",
            )
        # the listed pivots the residue rule dropped
        dropped = sorted(s - k for k in {sign * d for sign in signs for d in divisors}.difference(ks))
        if dropped:
            if reduced % 2:
                rule = "= 5 (mod 8)"
                why = (
                    f"{reduced} is odd, so every divisor k = {s_minus_z} of it and "
                    f"{reduced}/k are odd, and (k - 2s)^2 = 1 and 4({reduced})/k = 4 "
                    "(mod 8).  5 is not a square mod 8, so no pivot has a root."
                )
            else:
                rule = "mod 9 not in {0, 1, 4, 7}"
                why = (
                    f"Where 3 does not divide the divisor k = {s_minus_z} of {reduced}, "
                    f"{reduced}/k = {reduced}*k^-1 (mod 9), so the discriminant mod 9 "
                    "depends on k mod 9 alone.  At these pivots it is not a square "
                    "mod 9, so none of them has a root."
                )
            dropped_list = ", ".join(map(str, dropped))
            add("residue", f"(k - 2s)^2 + 4({reduced})/k {rule}, so Z not in {{{dropped_list}}}", why)
        sign_clause = f", with the sign of {reduced}" if one_sign else ""
        candidates_note = (
            f"Each tested pivot has {s_minus_z} equal to a divisor of {reduced} "
            f"of absolute value at most {cap}{sign_clause}."
        )
        ks.sort(reverse=True)
        discriminants = _discriminants(s, reduced, ks)
    pivot_roots = [_roots(k, discriminant) for k, discriminant in zip(ks, discriminants)]
    candidate_list = ", ".join(str(s - k) for k in ks)
    add("candidates", f"Z in {{{candidate_list}}}", candidates_note)

    for k, discriminant, roots in zip(ks, discriminants, pivot_roots):
        z = s - k
        if roots:
            triples = ", ".join(format_triple(Triple(x, s - z - x, z)) for x in roots)
            if len(roots) == 1:
                note = f"Discriminant {discriminant} gives the double root X = {roots[0]}; triple {triples}."
            else:
                note = f"Discriminant {discriminant} gives X = {roots[0]} or X = {roots[1]}; triples {triples}."
        elif discriminant < 0:
            note = f"Discriminant {discriminant} is negative, so Z = {z} is rejected."
        else:
            note = f"Discriminant {discriminant} is not a perfect square, so Z = {z} is rejected."
        # the constant s*z + d0/(3k), recovered exactly: discriminant = k^2 + 4*constant
        constant = (discriminant - k * k) // 4
        add(f"candidate Z = {z}", f"X^2{_term(-k, 'X')}{_term(-constant)} = 0", note)

    add(
        "solutions",
        format_solution_set(
            SolutionSet.finite(_closure(s, ((s - k, roots) for k, roots in zip(ks, pivot_roots))))
        ),
        "Union of the surviving triples, closed under all 6 coordinate "
        "permutations and sorted.",
    )
    return steps


def render(trace: list[TraceStep], format: str = "plain") -> str:
    """Deterministic rendering of a trace in one of RENDER_FORMATS."""
    if format in ("plain", "markdown"):
        # a step's two lines: (index, label, equation_text), then the note indented
        head, indent = ("%2d. [%s] %s", "      ") if format == "plain" else ("%s. **%s**: `%s`", "   ")
        lines = []
        for step in trace:
            lines.append(head % (step.index, step.label, step.equation_text))
            lines.append(indent + step.note)
    elif format == "structured-records":
        # imported here so that importing the package never loads json
        from json.encoder import encode_basestring_ascii as _json_string

        # the bytes json.dumps(..., separators=(",", ":")) writes for the step's
        # four fields, without building a dict per step
        lines = [
            '{"index":%d,"label":%s,"equation_text":%s,"note":%s}'
            % (step.index, _json_string(step.label), _json_string(step.equation_text), _json_string(step.note))
            for step in trace
        ]
    else:
        raise ValueError(f"unknown render format {format!r}")
    return "\n".join(lines) + ("\n" if lines else "")
