"""Answer checks that share no code with the solver.

Every finite answer is re-verified from first principles: each triple must
satisfy both constraints, and the list must be sorted, duplicate-free and
closed under the six coordinate permutations.  A failed check is a wrong
answer, which makes the benchmark exit nonzero; it is never counted as a
mere failure.
"""

from __future__ import annotations

import json
from itertools import permutations

# Report at most this many problems per check; one is enough to fail a run.
_MAX_PROBLEMS = 10


def finite_problem(s: int, c: int, triples: list[tuple[int, int, int]]) -> str | None:
    """Why ``triples`` is not a valid finite answer for (s, c), or None."""
    for x, y, z in triples:
        if x + y + z != s or x**3 + y**3 + z**3 != c:
            return f"(s={s}, c={c}): {(x, y, z)} does not satisfy the system"
    for before, after in zip(triples, triples[1:]):
        if not before < after:
            return f"(s={s}, c={c}): triples not strictly ascending at {before}, {after}"
    present = set(triples)
    for triple in triples:
        for perm in permutations(triple):
            if perm not in present:
                return f"(s={s}, c={c}): permutation {perm} of {triple} missing"
    return None


def solution_problem(s: int, c: int, result) -> str | None:
    """Why a ``SolutionSet`` returned by ``solve`` is wrong for (s, c), or None."""
    if c == s**3:
        if result.kind != "infinite_family" or result.family_anchor != s:
            return f"(s={s}, c={c}): expected the infinite family anchored at {s}"
        return None
    if result.kind != "finite" or result.triples is None:
        return f"(s={s}, c={c}): expected a finite answer, got {result.kind!r}"
    return finite_problem(s, c, [(t.x, t.y, t.z) for t in result.triples])


def trace_problem(s: int, c: int, result, steps, text: str) -> str | None:
    """Why a derivation trace disagrees with the finite answer it explains."""
    if result.kind != "finite":
        return None
    body = ", ".join(f"({t.x}, {t.y}, {t.z})" for t in result.triples)
    last = steps[-1] if steps else None
    if last is None or last.label != "solutions" or last.equation_text != f"(X, Y, Z) in {{{body}}}":
        return f"(s={s}, c={c}): trace does not end with the solved set"
    if text.count("\n") != 2 * len(steps):
        return f"(s={s}, c={c}): plain rendering is not two lines per step"
    return None


def grid_problems(lines: list[str], s_range: tuple[int, int], c_range: tuple[int, int]) -> list[str]:
    """Problems with one scan's serialized records over the whole grid."""
    problems: list[str] = []
    expected = [(s, c) for s in range(s_range[0], s_range[1] + 1) for c in range(c_range[0], c_range[1] + 1)]
    if len(lines) != len(expected):
        problems.append(f"scan produced {len(lines)} records for {len(expected)} points")
    for line, (s, c) in zip(lines, expected):
        record = json.loads(line)
        if (record.get("s"), record.get("c")) != (s, c):
            problem = f"record {(record.get('s'), record.get('c'))} where {(s, c)} was due"
        elif c == s**3:
            problem = None if record == {"s": s, "c": c, "kind": "infinite_family"} else f"(s={s}, c={c}): bad family record"
        elif record.get("kind") != "finite" or record.get("solution_count") != len(record.get("solutions", ())):
            problem = f"(s={s}, c={c}): bad finite record"
        else:
            problem = finite_problem(s, c, [tuple(t) for t in record["solutions"]])
        if problem:
            problems.append(problem)
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems
