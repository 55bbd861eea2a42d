"""Exhaustive solvers for small dimension-decomposition systems.

Two Diophantine shapes come up when splitting a global dimension into
simple-object contributions:

* quadratic-field squares: write a target (a + b*sqrt(n))/2 as a sum of
  r squares ((alpha + beta*sqrt(n))/2)^2 with positive integer alpha,
  beta, each summand the square of an algebraic integer;
* plain integer squares: write total - 1 as a sum of positive integers
  each dividing a fixed bound.

Both searches are exhaustive over explicit integer boxes and return
canonically sorted multisets, so results are reproducible and easy to
diff against an independent brute-force pass.  The quadratic search
runs over a table of admissible pairs built once per target: it prunes
a branch by the smallest weights left in the table and by the sign of
the remainder's conjugate, and reads the last two terms from a table of
two-term weight sums rather than a loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from ._record import record
from .exactcore import QuadraticFieldElement, divisors, squarefree_part


class InfeasibleTargetError(ValueError):
    """Target cannot be a sum of half-coordinate squares (parity fails)."""


# the most terms either search takes: each recurses once per term, and
# 256 is far above any rank the paper reaches and far below the
# interpreter's default limit of 1,000 frames
MAX_TERMS = 256


def algebraic_integer_check(alpha: int, beta: int, n: int) -> bool:
    """True iff (alpha + beta*sqrt(n))/2 is an algebraic integer."""
    if n < 1 or squarefree_part(n) != n:
        raise ValueError(f"n must be a squarefree positive integer, got {n}")
    return (alpha * alpha - n * beta * beta) % 4 == 0


@record
class QuadraticTarget:
    """A sum-of-squares instance in the real quadratic field of n.

    rank_terms is the exact number of summands, each the square of an
    algebraic integer.
    """

    n: int
    target: QuadraticFieldElement
    rank_terms: int

    def __post_init__(self) -> None:
        if self.n < 2 or squarefree_part(self.n) != self.n:
            raise ValueError(f"n must be squarefree and >= 2, got {self.n}")
        if not (self.target.is_rational or self.target.n == self.n):
            raise ValueError("target lives in a different quadratic field")
        if not 1 <= self.rank_terms <= MAX_TERMS:
            raise ValueError(f"rank_terms must be in 1..{MAX_TERMS}")


@record
class Decomposition:
    """Multiset of (alpha, beta) pairs, stored sorted by (beta, alpha)."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.terms, key=lambda t: (t[1], t[0])))
        object.__setattr__(self, "terms", ordered)

    def value(self, n: int) -> QuadraticFieldElement:
        """Re-expand the decomposition: sum of ((alpha + beta*sqrt(n))/2)^2."""
        q = p = 0
        for alpha, beta in self.terms:
            q += alpha * alpha + n * beta * beta
            p += alpha * beta
        return QuadraticFieldElement(Fraction(q, 2), p, n)


def fp_square_constraints(instance: QuadraticTarget) -> tuple[int, int]:
    """Integer constraint pair (A, B) with sum(alpha^2 + n*beta^2) = A
    and sum(alpha*beta) = B for any decomposition of the target.

    A is four times the rational part, B twice the sqrt coefficient;
    a non-integral value means no decomposition can exist.
    """
    t = instance.target
    a4 = 2 * t.a
    b2 = t.b
    if a4.denominator != 1 or b2.denominator != 1:
        raise InfeasibleTargetError(f"4*target = {a4}+{2 * b2}*sqrt({instance.n}) is not integral")
    return int(a4), int(b2)


def _pair_table(a_total: int, b_total: int, n: int) -> list[tuple[int, int]]:
    """The admissible pairs of enumerate_decompositions, in (beta, alpha)
    order; n is squarefree, so algebraic_integer_check's parity test
    applies as is."""
    return [
        (alpha, beta)
        for beta in range(1, math.isqrt(a_total // n) + 1)
        for alpha in range(1, math.isqrt(a_total - n * beta * beta) + 1)
        if alpha * beta <= b_total
        and (alpha * alpha - n * beta * beta) % 4 == 0
    ]


def enumerate_decompositions(instance: QuadraticTarget) -> list[Decomposition]:
    """All multisets of rank_terms positive pairs reproducing the target.

    Exhaustive over a pair table built once: every admissible (alpha,
    beta) with weights q = alpha^2 + n*beta^2 <= A and p = alpha*beta
    <= B, for (A, B) from fp_square_constraints, in (beta, alpha)
    order.  A multiset is a non-decreasing run of table indices, so
    each is visited exactly once.  A branch stops as soon as the
    remaining budget cannot hold k more terms from the rest of the
    table (k times the suffix minimum of q or of p exceeds it), and a
    term is skipped when the remainder (A', B') it leaves has B' < 0 or
    A'^2 < 4n B'^2.  That is exact: every term's conjugate (q -
    2p*sqrt(n))/4 is positive, as q = alpha^2 + n*beta^2 >=
    2*sqrt(n)*alpha*beta = 2*sqrt(n)*p with equality only at alpha =
    beta*sqrt(n), which no integers reach, so the conjugate (A' -
    2B'*sqrt(n))/4 of the rest must be positive too.
    One term alone is looked up by (q, p), since (alpha + beta*sqrt(n))^2
    = q + 2p*sqrt(n), and (q, p) names one pair: alpha^2 and n*beta^2 are
    the roots of t^2 - q t + n p^2, and they cannot swap, as n is not a
    square.  The last two terms are read, in the loop that picks the
    third from last, from a table of every index pair i <= j inside
    (A, B), keyed by (q_i + q_j, p_i + p_j) and holding each first index
    i; j is the one-term entry of the rest.  Both tables key a weight sum
    by one packed integer.
    """
    a_total, b_total = fp_square_constraints(instance)
    n = instance.n
    # a sum of nonzero real squares is totally positive, so a target with
    # a negative conjugate admits no decomposition at all
    if not instance.target.is_totally_positive():
        return []
    pairs = _pair_table(a_total, b_total, n)
    qs = [alpha * alpha + n * beta * beta for alpha, beta in pairs]
    ps = [alpha * beta for alpha, beta in pairs]
    min_q = list(accumulate(reversed(qs), min))[::-1]
    min_p = list(accumulate(reversed(ps), min))[::-1]
    # a weight sum (q, p) with 0 <= p <= B is packed as q * width + p,
    # which names it once and adds as the sums do
    width = b_total + 1
    keys = [q * width + p for q, p in zip(qs, ps)]
    last = {key: i for i, key in enumerate(keys)}
    two: dict[int, tuple[int, ...]] = {}
    for i, (qi, pi) in enumerate(zip(qs, ps)):
        for j in range(i, len(pairs)):
            if qi + min_q[j] > a_total or pi + min_p[j] > b_total:
                break
            if qi + qs[j] <= a_total and pi + ps[j] <= b_total:
                key = keys[i] + keys[j]
                two[key] = two.get(key, ()) + (i,)
    out: list[Decomposition] = []
    chosen: list[tuple[int, int]] = []
    n4 = 4 * n

    def extend(a_rem: int, b_rem: int, k: int, start: int) -> None:
        for i in range(start, len(pairs)):
            if a_rem < k * min_q[i] or b_rem < k * min_p[i]:
                break
            a, b = a_rem - qs[i], b_rem - ps[i]
            # the rest's conjugate must be positive; a negative b names no
            # key, and packed it would alias one
            if b < 0 or a * a < n4 * b * b:
                continue
            if k > 3:
                chosen.append(pairs[i])
                extend(a, b, k - 1, i)
                chosen.pop()
                continue
            key = a * width + b  # k = 3: the last two terms, from the table
            for j in two.get(key, ()):
                if j >= i:
                    out.append(Decomposition((*chosen, pairs[i], pairs[j], pairs[last[key - keys[j]]])))

    k, key = instance.rank_terms, a_total * width + b_total
    if k > 2:
        extend(a_total, b_total, k, 0)
    elif k == 2:
        out.extend(Decomposition((pairs[i], pairs[last[key - keys[i]]])) for i in two.get(key, ()))
    elif key in last:
        out.append(Decomposition((pairs[last[key]],)))
    del extend  # extend refers to itself; free the tables without a gc pass
    for dec in out:
        assert dec.value(n) == instance.target
    out.sort(key=lambda d: d.terms)
    return out


def enumerate_integer_square_decompositions(
    total: int, term_count: int, divisor_bound: int
) -> list[tuple[int, ...]]:
    """Multisets of term_count positive integers summing to total - 1,
    each dividing divisor_bound.  The unit contributes the subtracted 1.
    """
    if not min(total, MAX_TERMS) >= term_count >= 1:
        raise ValueError(f"need total, {MAX_TERMS} >= term_count >= 1, got {total}, {term_count}")
    if divisor_bound < 1:
        raise ValueError("divisor_bound must be positive")
    allowed = divisors(divisor_bound)
    goal = total - 1
    out: list[tuple[int, ...]] = []

    def extend(rem: int, k: int, start: int, acc: list[int]) -> None:
        if k == 0:
            if rem == 0:
                out.append(tuple(acc))
            return
        for d in allowed:
            if d < start or d * k > rem:
                continue
            if rem - d > divisor_bound * (k - 1):
                continue
            acc.append(d)
            extend(rem - d, k - 1, d, acc)
            acc.pop()

    extend(goal, term_count, 1, [])
    return sorted(out)
