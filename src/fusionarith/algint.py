"""Predicates on algebraic integers presented by integer polynomials.

The tests here decide, with integer arithmetic only:

* the d-number divisibility criterion on a monic polynomial, whose
  verdict is the least failing index, or None for a d-number,
* whether a cubic has an abelian splitting field,
* whether the roots of an irreducible cubic lie in one of the two
  supported cyclic cubic fields (conductor 7 or 9),
* whether a quadratic field embeds in a given cyclotomic field,
* the primary decomposition of the unit group mod N, returned as the
  plain tuple of its cyclic factor orders.

Membership in a cyclic cubic field is decided by an exact search, not a
discriminant heuristic.  For both supported conductors the defining
polynomial generates the full ring of integers (its discriminant equals
the field discriminant), so any algebraic-integer root must be an
integer combination u + v t + w t^2.  The trace pins one coordinate and
the trace form, a positive definite quadratic, confines the rest to a
finite box; each surviving triple y is checked by one remainder, of the
composition p(y) by m.  This keeps the test sound even when several
cubic fields share the same squarefree discriminant pattern.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .exactcore import (
    IntPolynomial,
    UnsupportedDegreeError,
    _prem,
    factor_integer,
    is_perfect_square,
    poly_discriminant,
    rational_roots,
    squarefree_part,
)


def _divides(x: int, y: int) -> bool:
    # convention: everything divides 0; 0 divides only 0
    if x == 0:
        return y == 0
    return y % x == 0


def is_d_number(p: IntPolynomial) -> Optional[int]:
    """Divisibility test a_n^i | a_i^n for i = 1..n on a monic polynomial:
    the least i that fails, or None when p is a d-number.

    a_i denotes the coefficient of x^(n-i), so a_n is the constant term.
    Divisibility is taken on absolute values.
    """
    if p.degree < 1:
        raise ValueError("d-number test needs degree >= 1")
    if not p.is_monic:
        raise ValueError("d-number test is defined on monic polynomials")
    n = p.degree
    a_n = abs(p.coeffs[0])
    for i in range(1, n + 1):
        a_i = abs(p.coeffs[n - i])
        if not _divides(a_n ** i, a_i ** n):
            return i
    return None


def passes_cyclotomic_test(p: IntPolynomial) -> bool:
    """Abelian splitting field test for degrees 1 to 3.

    Degree up to 2 is always abelian.  An irreducible cubic is abelian
    exactly when its discriminant is a perfect square (cyclic of order
    three); a reducible cubic splits through fields of degree at most 2.
    """
    if p.degree < 1 or p.degree > 3:
        raise UnsupportedDegreeError(f"cyclotomic test supports degrees 1..3, got {p.degree}")
    if p.degree <= 2:
        return True
    if rational_roots(p):
        return True
    return is_perfect_square(poly_discriminant(p)) is not None


# ---------------------------------------------------------------------------
# cyclic cubic fields of conductor 7 and 9

# Each entry: defining polynomial m with Z[t] the full ring of integers,
# the traces (Tr t, Tr t^2) used for the linear constraint, the Gram
# matrix of the trace form on basis (1, t, t^2), and the diagonal of its
# inverse for the coordinate box bounds.
_CUBIC_FIELDS: dict[int, dict] = {
    9: {
        "min_poly": IntPolynomial((1, -3, 0, 1)),
        "trace_t": 0,
        "trace_t2": 6,
        "gram": ((3, 0, 6), (0, 6, -3), (6, -3, 18)),
        "inv_diag": (Fraction(11, 9), Fraction(2, 9), Fraction(2, 9)),
    },
    7: {
        "min_poly": IntPolynomial((-1, -2, 1, 1)),
        "trace_t": -1,
        "trace_t2": 5,
        "gram": ((3, -1, 5), (-1, 5, -4), (5, -4, 13)),
        "inv_diag": (Fraction(1), Fraction(2, 7), Fraction(2, 7)),
    },
}


def _floor_sqrt(fr: Fraction) -> int:
    if fr < 0:
        raise ValueError("negative radicand")
    return math.isqrt(fr.numerator * fr.denominator) // fr.denominator


def in_cyclic_cubic_field(p: IntPolynomial, conductor: int) -> bool:
    """Decide whether the roots of an irreducible cubic p lie in the
    cyclic cubic field of the given conductor (7 or 9).

    A non-monic p is replaced by the monic polynomial of (leading
    coefficient times root), which lies in the same field.  For each w in
    the trace-form box, the trace fixes u by v and the trace-form value
    is a quadratic in v, solved exactly; y = u + v t + w t^2 is a root
    exactly when p(y), composed in t, leaves no remainder by the monic m.
    """
    if conductor not in _CUBIC_FIELDS:
        raise ValueError(f"unsupported conductor {conductor}; only 7 and 9 are available")
    if p.degree != 3 or rational_roots(p):
        raise ValueError("membership test needs an irreducible cubic")
    if p.leading < 0:
        p = -p
    if not p.is_monic:
        a = p.leading
        d0, c1, b2, _ = p.coeffs
        p = IntPolynomial((a * a * d0, a * c1, b2, 1))
    field = _CUBIC_FIELDS[conductor]
    m = field["min_poly"]
    trace_target = -p.coeffs[2]
    s2 = p.coeffs[2] ** 2 - 2 * p.coeffs[1]
    if s2 < 0:
        return False
    bound_v = _floor_sqrt(s2 * field["inv_diag"][1])
    bound_w = _floor_sqrt(s2 * field["inv_diag"][2])
    g = field["gram"]
    t1, t2 = field["trace_t"], field["trace_t2"]
    # with 3u = r - t1*v, r = trace - t2*w, 9*Q(u, v, w) = 9*s2 reads qa*v^2 + qb*v + qc = 0
    qa = g[0][0] * t1 * t1 - 6 * g[0][1] * t1 + 9 * g[1][1]
    for w in range(-bound_w, bound_w + 1):
        r = trace_target - t2 * w
        qb = -2 * g[0][0] * t1 * r + 6 * g[0][1] * r - 6 * g[0][2] * t1 * w + 18 * g[1][2] * w
        qc = g[0][0] * r * r + 6 * g[0][2] * r * w + 9 * g[2][2] * w * w - 9 * s2
        root = is_perfect_square(qb * qb - 4 * qa * qc)
        if root is None:
            continue
        for num in {-qb - root, -qb + root}:
            v, frac = divmod(num, 2 * qa)
            if frac or abs(v) > bound_v or (r - t1 * v) % 3:
                continue
            if not _prem(p.evaluate(IntPolynomial(((r - t1 * v) // 3, v, w))).coeffs, m.coeffs):
                return True
    return False


def quadratic_subfield_in_cyclotomic(d: int, modulus: int) -> bool:
    """Whether Q(sqrt(d)) embeds in the cyclotomic field of the given
    modulus: the field discriminant (d, or 4d when d is not 1 mod 4)
    must divide the modulus."""
    if d in (0, 1) or squarefree_part(d) != d:
        raise ValueError(f"d must be squarefree and not 0 or 1, got {d}")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    disc = d if d % 4 == 1 else 4 * d
    return modulus % abs(disc) == 0


def cyclotomic_galois_structure(modulus: int) -> tuple[int, ...]:
    """Cyclic factor orders of (Z/N)^x in primary decomposition, ascending.

    Odd prime powers p^k contribute the prime-power parts of
    p^(k-1)(p-1); the 2-part contributes nothing for 2, a single C2 for
    4, and C2 x C_(2^(k-2)) for higher powers of two.
    """
    if modulus < 3:
        raise ValueError("modulus must be at least 3")
    orders: list[int] = []
    for p, k in factor_integer(modulus):
        if p == 2:
            orders.extend([2, 2 ** (k - 2)] if k >= 3 else [2] * (k - 1))
        else:
            orders.extend(q ** e for q, e in factor_integer(p ** (k - 1) * (p - 1)))
    return tuple(sorted(orders))
