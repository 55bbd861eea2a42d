"""Independent reference implementations used only by the tests.

Everything in this file recomputes results straight from definitions
with plain Fraction arithmetic and brute-force search.  Nothing is
imported from the package under test, so a library bug cannot hide
inside its own oracle.  Speed is a non-goal; every search box here is
small enough to finish in seconds.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence, Union

RootHandle = Union[Fraction, tuple[Fraction, Fraction]]


class OracleAmbiguous(RuntimeError):
    """A brute-force search box was exhausted without a verdict."""


# ---------------------------------------------------------------------------
# Fraction polynomials, constant coefficient first.


def _norm(cs: Sequence[Fraction]) -> list[Fraction]:
    out = list(cs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _peval(cs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _pderiv(cs: Sequence[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(cs)][1:]


def _pdivmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = _norm(num)
    den = _norm(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, d in enumerate(den):
            rem[shift + i] -= factor * d
        rem = _norm(rem)
        if not rem:
            break
    return _norm(quot), rem


def _pgcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = _norm(a), _norm(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _squarefree(cs: Sequence[Fraction]) -> list[Fraction]:
    cs = _norm(cs)
    if len(cs) <= 1:
        return cs
    g = _pgcd(cs, _pderiv(cs))
    quot, rem = _pdivmod(cs, g)
    assert not rem
    return quot


def _primitive_int(cs: Sequence[Fraction]) -> list[int]:
    cs = _norm(cs)
    lcm = 1
    for c in cs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in cs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return [v // (g or 1) for v in ints]


def _interval_eval(cs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    # Horner with interval arithmetic: the true range on [lo, hi] sits
    # inside the returned pair, which is all the pruning needs.
    alo = ahi = cs[-1]
    for c in reversed(cs[:-1]):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def _separation_lower_bound(ints: Sequence[int]) -> Fraction:
    """Positive lower bound on the distance between distinct roots of a
    squarefree integer polynomial of degree <= 3 (Mahler's bound with
    every irrational quantity rounded the safe way).
    """
    deg = len(ints) - 1
    if deg <= 1:
        return Fraction(1)
    if deg == 2:
        c0, c1, c2 = ints
        disc = c1 * c1 - 4 * c2 * c0
        if disc <= 0:
            return Fraction(1)
        return Fraction(max(math.isqrt(disc), 1), abs(c2))
    d, c, b, a = ints
    disc = (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c
            - 4 * a * c**3 - 27 * a * a * d * d)
    norm_sq = sum(v * v for v in ints)
    # sep > sqrt(3|disc|) / (3^(5/2) * ||p||^2); 16 > 3^(5/2)
    return Fraction(max(math.isqrt(3 * abs(disc)), 1), 16 * norm_sq)


def _rational_root_candidates(ints: Sequence[int]) -> set[Fraction]:
    """The rational root theorem's list: 0 when the constant term is 0,
    and +-p/q for p dividing the lowest nonzero coefficient (the constant
    term once the powers of x are divided out) and q dividing the
    leading one."""
    low = next(c for c in ints if c)
    lead = ints[-1]
    candidates = {Fraction(0)} if ints[0] == 0 else set()
    for p in range(1, abs(low) + 1):
        if low % p:
            continue
        for q in range(1, abs(lead) + 1):
            if lead % q:
                continue
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    return candidates


def isolate_roots_bisection(coeffs: Sequence[int]) -> list[RootHandle]:
    """Distinct real roots of an integer polynomial of degree <= 3,
    isolated purely by endpoint sign changes on a bisection tree.

    Rational roots come back as exact Fractions, irrational ones as
    open intervals with rational endpoints small enough that no two
    handles overlap and no handle contains a rational root.
    """
    cs = _norm([Fraction(c) for c in coeffs])
    if len(cs) - 1 > 3:
        raise ValueError("bisection oracle only handles degree <= 3")
    if len(cs) <= 1:
        return []
    sf = _squarefree(cs)
    ints = _primitive_int(sf)

    # Exhaust rational roots by trial over the classic candidate list,
    # deflating each hit so the remainder has none left.
    rational: list[Fraction] = []
    work = [Fraction(c) for c in ints]
    for cand in sorted(_rational_root_candidates(ints)):
        while len(work) > 1 and _peval(work, cand) == 0:
            rational.append(cand)
            quot, rem = _pdivmod(work, [-cand, Fraction(1)])
            assert not rem
            work = quot

    handles: list[RootHandle] = list(rational)
    if len(work) > 1:
        rem_ints = _primitive_int(work)
        bound = Fraction(1) + max(abs(Fraction(c, rem_ints[-1])) for c in rem_ints[:-1])
        sep = _separation_lower_bound(rem_ints)
        stack = [(-bound, bound)]
        while stack:
            lo, hi = stack.pop()
            elo, ehi = _interval_eval(work, lo, hi)
            if elo > 0 or ehi < 0:
                continue
            if hi - lo < sep:
                if (_peval(work, lo) > 0) != (_peval(work, hi) > 0):
                    handles.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            stack.append((lo, mid))
            stack.append((mid, hi))

    # Shrink every interval until it straddles no rational root and no
    # other interval, so plain endpoint comparison sorts the handles.
    def split_away(iv: tuple[Fraction, Fraction], points: list[Fraction]) -> tuple[Fraction, Fraction]:
        lo, hi = iv
        while any(lo < p < hi for p in points) or _peval(work, lo) == 0 or _peval(work, hi) == 0:
            mid = (lo + hi) / 2
            if (_peval(work, lo) > 0) != (_peval(work, mid) > 0) and _peval(work, mid) != 0:
                hi = mid
            else:
                lo = mid
        return lo, hi

    refined: list[RootHandle] = []
    for h in handles:
        if isinstance(h, tuple):
            refined.append(split_away(h, rational))
        else:
            refined.append(h)
    refined.sort(key=lambda h: h[0] if isinstance(h, tuple) else h)
    return refined


def bisection_real_root_count(coeffs: Sequence[int]) -> int:
    """Number of distinct real roots, straight off the bisection tree."""
    return len(isolate_roots_bisection(coeffs))


def root_exceeds(handle: RootHandle, bound: Fraction) -> bool:
    """Strict comparison root > bound for a bisection handle."""
    if isinstance(handle, Fraction):
        return handle > bound
    lo, hi = handle
    if lo >= bound:
        return True
    if hi <= bound:
        return False
    raise OracleAmbiguous(f"interval ({lo}, {hi}) straddles {bound}")


def refine_past(coeffs: Sequence[int], handle: RootHandle, bound: Fraction) -> RootHandle:
    """Bisect an isolating interval until it no longer straddles bound."""
    if isinstance(handle, Fraction):
        return handle
    work = [Fraction(c) for c in coeffs]
    lo, hi = handle
    while lo < bound < hi:
        mid = (lo + hi) / 2
        if _peval(work, mid) == 0:
            raise OracleAmbiguous(f"rational root at {mid} inside an irrational handle")
        if (_peval(work, lo) > 0) != (_peval(work, mid) > 0):
            hi = mid
        else:
            lo = mid
    return lo, hi


def sturm_sequence_oracle(coeffs: Sequence[int]) -> list[list[Fraction]]:
    """The classical Sturm sequence p, p', -rem(p, p'), ... of a
    squarefree polynomial, by Fraction long division."""
    seq = [[Fraction(c) for c in coeffs]]
    seq.append(_pderiv(seq[0]))
    while True:
        rem = _pdivmod(seq[-2], seq[-1])[1]
        if not rem:
            return seq
        seq.append([-c for c in rem])


def sign_at(coeffs: Sequence, x: Fraction) -> int:
    v = _peval([Fraction(c) for c in coeffs], x)
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# Arithmetic predicates, recomputed from their definitions.


def _divides(d: int, m: int) -> bool:
    if d == 0:
        return m == 0
    return m % abs(d) == 0


def d_number_oracle(coeffs: Sequence[int]) -> bool:
    """Direct check of (a_n)^i | (a_i)^n where a_i multiplies x^(n-i)."""
    cs = list(coeffs)
    n = len(cs) - 1
    if n < 1 or cs[-1] != 1:
        raise ValueError("oracle wants a monic polynomial of degree >= 1")
    a = {i: cs[n - i] for i in range(1, n + 1)}
    return all(_divides(abs(a[n]) ** i, abs(a[i]) ** n) for i in range(1, n + 1))


def totient_oracle(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def squarefree_part_oracle(m: int) -> int:
    if m == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if m < 0 else 1
    m = abs(m)
    out = 1
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            out *= p
        p += 1
    return sign * out * m


def _is_square(m: int) -> bool:
    return m >= 0 and math.isqrt(m) ** 2 == m


def _cubic_disc(ints: Sequence[int]) -> int:
    d, c, b, a = ints
    return (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c
            - 4 * a * c**3 - 27 * a * a * d * d)


def _deflate_rational_roots(coeffs: Sequence[int]) -> tuple[list[Fraction], list[Fraction]]:
    """Split off all rational roots (with multiplicity): (roots, rest)."""
    work = [Fraction(c) for c in _norm([Fraction(c) for c in coeffs])]
    roots: list[Fraction] = []
    changed = True
    while changed and len(work) > 1:
        changed = False
        for cand in sorted(_rational_root_candidates(_primitive_int(work))):
            if len(work) > 1 and _peval(work, cand) == 0:
                roots.append(cand)
                work, rem = _pdivmod(work, [-cand, Fraction(1)])
                assert not rem
                changed = True
                break
    return roots, work


def cyclotomic_oracle(coeffs: Sequence[int]) -> bool:
    """Abelian splitting field for degree <= 3: quadratics always, cubics
    when reducible or when the discriminant is a perfect square.
    """
    ints = _norm([Fraction(c) for c in coeffs])
    deg = len(ints) - 1
    if deg <= 2:
        return True
    if deg != 3:
        raise ValueError("oracle only handles degree <= 3")
    roots, _ = _deflate_rational_roots(coeffs)
    if roots:
        return True
    return _is_square(_cubic_disc(_primitive_int(ints)))


_CUBIC_FIELD_GENERATORS = {
    # conductor -> minimal polynomial of 2cos(2pi/conductor), constant first
    9: (1, -3, 0, 1),
    7: (-1, -2, 1, 1),
}


def _char_poly_3x3(m: list[list[int]]) -> tuple[int, int, int]:
    """(trace, second symmetric function, determinant) of a 3x3 matrix."""
    tr = m[0][0] + m[1][1] + m[2][2]
    sec = (m[0][0] * m[1][1] - m[0][1] * m[1][0]
           + m[0][0] * m[2][2] - m[0][2] * m[2][0]
           + m[1][1] * m[2][2] - m[1][2] * m[2][1])
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return tr, sec, det


def cyclic_cubic_member_oracle(coeffs: Sequence[int], conductor: int) -> bool:
    """Do all roots of an irreducible monic cubic lie in the cyclic cubic
    field of the given conductor?

    Complete by construction: a root would be an integer combination
    u + v*t + w*t^2 of the standard generator t, its conjugates have
    square sum e1^2 - 2*e2, and that value in the positive definite
    trace form bounds |u|, |v|, |w| outright.  Every lattice point in
    the box is checked exactly via the multiplication matrix, so an
    exhausted box is a definitive no.
    """
    gen = _CUBIC_FIELD_GENERATORS[conductor]
    ints = _primitive_int([Fraction(c) for c in coeffs])
    if len(ints) != 4 or ints[-1] != 1:
        raise ValueError("oracle wants a monic cubic")
    if _deflate_rational_roots(ints)[0]:
        raise ValueError("oracle wants an irreducible cubic")
    disc = _cubic_disc(ints)
    if disc % conductor**2 or not _is_square(disc // conductor**2):
        return False

    # power traces of the generator via Newton's identities
    g0, g1, g2, _ = gen
    e1, e2, e3 = -g2, g1, -g0
    p_tr = [3, e1, e1 * e1 - 2 * e2]
    p_tr.append(e1 * p_tr[2] - e2 * p_tr[1] + 3 * e3)
    p_tr.append(e1 * p_tr[3] - e2 * p_tr[2] + e3 * p_tr[1])
    gram = [[p_tr[i + j] for j in range(3)] for i in range(3)]
    det_g = (gram[0][0] * (gram[1][1] * gram[2][2] - gram[1][2] * gram[2][1])
             - gram[0][1] * (gram[1][0] * gram[2][2] - gram[1][2] * gram[2][0])
             + gram[0][2] * (gram[1][0] * gram[2][1] - gram[1][1] * gram[2][0]))
    assert det_g == conductor**2
    inv_diag = [
        Fraction(gram[1][1] * gram[2][2] - gram[1][2] * gram[2][1], det_g),
        Fraction(gram[0][0] * gram[2][2] - gram[0][2] * gram[2][0], det_g),
        Fraction(gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0], det_g),
    ]
    c0, c1, c2, _ = ints
    s2 = c2 * c2 - 2 * c1
    if s2 < 0:
        return False
    bounds = [math.isqrt(int(s2 * q)) for q in inv_diag]

    mt = [[0, 0, -g0], [1, 0, -g1], [0, 1, -g2]]
    mt2 = [[sum(mt[i][k] * mt[k][j] for k in range(3)) for j in range(3)]
           for i in range(3)]
    for v in range(-bounds[1], bounds[1] + 1):
        for w in range(-bounds[2], bounds[2] + 1):
            three_u = -c2 - v * p_tr[1] - w * p_tr[2]
            if three_u % 3:
                continue
            u = three_u // 3
            if abs(u) > bounds[0]:
                continue
            x = (u, v, w)
            if sum(gram[i][j] * x[i] * x[j] for i in range(3) for j in range(3)) != s2:
                continue
            m = [[u * (i == j) + v * mt[i][j] + w * mt2[i][j] for j in range(3)]
                 for i in range(3)]
            if _char_poly_3x3(m) == (-c2, c1, -c0):
                return True
    return False


def quadratic_subfield_oracle(d: int, modulus: int) -> bool:
    """Q(sqrt(d)) inside the modulus-th cyclotomic field: the quadratic
    field's discriminant (d, or 4d off the 1 mod 4 class) must divide."""
    disc = d if d % 4 == 1 else 4 * d
    return modulus % abs(disc) == 0


# ---------------------------------------------------------------------------
# Brute-force survivor search for the class-equation instances.


def _int_divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def brute_force_survivors(
    fixed_codegrees: Sequence[int],
    orbit_degree: int,
    product_divides: int,
    root_lower_bounds: Sequence[Fraction],
    membership_conductor: Optional[int] = None,
    excluded_quadratic_subfields: Sequence[tuple[int, int]] = (),
    distinct_real_required: bool = False,
) -> frozenset[tuple[int, ...]]:
    """Survivor coefficient tuples for a class-equation instance, found by
    scanning every polynomial in a provably sufficient box and applying
    each filter in its definitional form.

    distinct_real_required mirrors the real-roots feasibility mode: the
    orbit consists of orbit_degree distinct codegrees, so candidates
    with repeated roots are out regardless of the filter verdicts.
    """
    residual = 1 - sum(Fraction(1, f) for f in fixed_codegrees)
    assert residual > 0
    bounds = sorted(Fraction(b) for b in root_lower_bounds)
    survivors: set[tuple[int, ...]] = set()
    for prod in _int_divisors(product_divides):
        forced = residual * prod
        if forced.denominator != 1:
            continue
        forced = int(forced)
        if orbit_degree == 2:
            candidates = [(prod, -forced, 1)]
        else:
            # every positive root of a survivor is below P/(b1*b2), so the
            # trace never reaches 3*P/(b1*b2)
            cap = (3 * prod / (bounds[0] * bounds[1])).__ceil__()
            candidates = [(-prod, forced, -e1, 1) for e1 in range(1, cap + 1)]
        for coeffs in candidates:
            if not d_number_oracle(coeffs):
                continue
            sf_deg = len(_squarefree([Fraction(c) for c in coeffs])) - 1
            handles = isolate_roots_bisection(coeffs)
            if len(handles) != sf_deg:
                continue
            if distinct_real_required and len(handles) != len(coeffs) - 1:
                continue
            padded = bounds[: len(handles)]
            padded = padded + [Fraction(0)] * (len(handles) - len(padded))
            refined = [refine_past(coeffs, h, b) for h, b in zip(handles, padded)]
            if not all(root_exceeds(h, b) for h, b in zip(refined, padded)):
                continue
            if not cyclotomic_oracle(coeffs):
                continue
            if membership_conductor is not None:
                roots, rest = _deflate_rational_roots(coeffs)
                deg_rest = len(rest) - 1
                if deg_rest == 2:
                    continue
                if deg_rest == 3 and not cyclic_cubic_member_oracle(
                        _primitive_int(rest), membership_conductor):
                    continue
            excluded = False
            for d_ex, modulus in excluded_quadratic_subfields:
                roots, rest = _deflate_rational_roots(coeffs)
                if len(rest) - 1 != 2:
                    continue
                q0, q1, q2 = _primitive_int(rest)
                disc = q1 * q1 - 4 * q2 * q0
                if disc > 0 and not _is_square(disc):
                    if squarefree_part_oracle(disc) == d_ex and not quadratic_subfield_oracle(d_ex, modulus):
                        excluded = True
            if excluded:
                continue
            survivors.add(tuple(coeffs))
    return frozenset(survivors)


# ---------------------------------------------------------------------------
# Decomposition search boxes.


def brute_decompositions(
    n: int, a_total: int, b_total: int, term_count: int,
    require_integral: bool = True,
) -> set[tuple[tuple[int, int], ...]]:
    """All multisets of term_count pairs (alpha, beta) of positive integers
    with sum(alpha^2 + n*beta^2) = a_total and sum(alpha*beta) = b_total,
    found by filtering every combination from the finite pair box.

    Combinations are grown one pair at a time in box order; a partial
    combination whose sums already exceed a_total or b_total is dropped
    with all its extensions, since every pair adds positive amounts.
    The last pair is read off what is left: every box pair whose own
    sums equal the remainder, found in a table of pairs by their sums.
    """
    pairs = []
    beta = 1
    while n * beta * beta <= a_total:
        alpha = 1
        while alpha * alpha + n * beta * beta <= a_total:
            if not require_integral or (alpha * alpha - n * beta * beta) % 4 == 0:
                pairs.append((alpha, beta))
            alpha += 1
        beta += 1
    pairs.sort(key=lambda t: (t[1], t[0]))
    by_sums: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        by_sums.setdefault((a * a + n * b * b, a * b), []).append(i)
    out: set[tuple[tuple[int, int], ...]] = set()
    partial: list[tuple[tuple[tuple[int, int], ...], int, int, int]] = [((), 0, 0, 0)]
    while partial:
        combo, start, a_sum, b_sum = partial.pop()
        if len(combo) == term_count - 1:
            for i in by_sums.get((a_total - a_sum, b_total - b_sum), ()):
                if i >= start:
                    out.add(combo + (pairs[i],))
            continue
        for i in range(start, len(pairs)):
            a, b = pairs[i]
            a_next, b_next = a_sum + a * a + n * b * b, b_sum + a * b
            if a_next <= a_total and b_next <= b_total:
                partial.append((combo + (pairs[i],), i, a_next, b_next))
    return out


def brute_square_summands(total: int, term_count: int, divisor_bound: int) -> set[tuple[int, ...]]:
    """Multisets of term_count divisors of divisor_bound summing to total-1."""
    divisors = _int_divisors(divisor_bound)
    return {
        combo
        for combo in combinations_with_replacement(divisors, term_count)
        if sum(combo) == total - 1
    }


# ---------------------------------------------------------------------------
# S-matrix checks over Q(sqrt n).  An element is a pair (p, q) of
# Fractions meaning p + q*sqrt(n); inputs are half-pairs (a, b) meaning
# (a + b*sqrt(n))/2, as in the case files.

QuadPair = tuple[Fraction, Fraction]


def _quad(half_pair: tuple) -> QuadPair:
    return (Fraction(half_pair[0]) / 2, Fraction(half_pair[1]) / 2)


def _quad_mul(x: QuadPair, y: QuadPair, n: int) -> QuadPair:
    return (x[0] * y[0] + n * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _quad_add(x: QuadPair, y: QuadPair) -> QuadPair:
    return (x[0] + y[0], x[1] + y[1])


def _quad_inverse(x: QuadPair, n: int) -> QuadPair:
    norm = x[0] * x[0] - n * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _quad_text(x: QuadPair, n: int) -> str:
    """"3/2", "4/5r5", "1/2+1/2r5", "1/2-1/2r5": the scalar grammar."""
    rat, coef = x
    if coef == 0:
        return str(rat)
    if rat == 0:
        return f"{coef}r{n}"
    return f"{rat}{'+' if coef > 0 else '-'}{abs(coef)}r{n}"


def orthogonality_oracle(rows: Sequence[Sequence[tuple]], n: int,
                         declared: tuple) -> Optional[tuple[int, int]]:
    """First (i, j) with i <= j, rows scanned in order, whose inner
    product is not declared (i == j) or 0 (i != j); None when every pair
    passes.  rows and declared are half-pairs."""
    s = [[_quad(e) for e in row] for row in rows]
    norm = _quad(declared)
    size = len(s)
    for i in range(size):
        for j in range(i, size):
            inner = (Fraction(0), Fraction(0))
            for k in range(size):
                inner = _quad_add(inner, _quad_mul(s[i][k], s[j][k], n))
            if inner != (norm if i == j else (0, 0)):
                return (i, j)
    return None


def verlinde_oracle(rows: Sequence[Sequence[tuple]], n: int, declared: tuple,
                    unit_index: int = 0):
    """(tensor, first_violation, first_value) of the naive Verlinde sums
    N[X][Y][Z] = sum_W s_XW s_YW s_ZW / (declared * d_W), visiting every
    (X, Y >= X, Z) in order; tensor is None exactly when some sum is not
    a non-negative integer, and then the other two name the first one."""
    s = [[_quad(e) for e in row] for row in rows]
    norm = _quad(declared)
    dims = s[unit_index]
    size = len(s)
    tensor = [[[0] * size for _ in range(size)] for _ in range(size)]
    for x in range(size):
        for y in range(x, size):
            for z in range(size):
                total = (Fraction(0), Fraction(0))
                for w in range(size):
                    term = _quad_mul(_quad_mul(s[x][w], s[y][w], n), s[z][w], n)
                    weight = _quad_inverse(_quad_mul(norm, dims[w], n), n)
                    total = _quad_add(total, _quad_mul(term, weight, n))
                rat, coef = total
                if coef != 0 or rat.denominator != 1 or rat < 0:
                    return None, (x, y, z), _quad_text(total, n)
                tensor[x][y][z] = tensor[y][x][z] = int(rat)
    return tensor, None, None


def galois_oracle(rows: Sequence[Sequence[tuple]], n: int,
                  unit_index: int = 0) -> Optional[tuple[tuple[int, ...], int, bool]]:
    """(mapping, unit_image, unit_image_dim_square_is_one) of the column
    permutation realizing sqrt(n) -> -sqrt(n) on character ratios, or
    None when there is none.  Straight from the definition: column y's
    ratio vector is (s_XY / d_Y)_X, with d = the unit row, and y maps to
    the one column whose ratio vector is the conjugate of y's.  rows are
    half-pairs; every d_Y must be nonzero."""
    s = [[_quad(e) for e in row] for row in rows]
    dims = s[unit_index]
    size = len(s)
    ratios = [tuple(_quad_mul(s[x][y], _quad_inverse(dims[y], n), n) for x in range(size))
              for y in range(size)]
    mapping = []
    for y in range(size):
        conjugated = tuple((p, -q) for p, q in ratios[y])
        matches = [image for image in range(size) if ratios[image] == conjugated]
        if len(matches) != 1:
            return None
        mapping.append(matches[0])
    if sorted(mapping) != list(range(size)):
        return None
    image = mapping[unit_index]
    return tuple(mapping), image, _quad_mul(dims[image], dims[image], n) == (1, 0)
