"""Exact integer and rational polynomial arithmetic.

Representation conventions
--------------------------

``IntPolynomial`` stores integer coefficients constant term first:
``IntPolynomial((-343, 196, -28, 1))`` is x^3 - 28x^2 + 196x - 343.
Trailing zero coefficients are stripped on construction, so the zero
polynomial is the empty tuple and reports degree -1.

``QuadraticFieldElement`` holds a value (a + b*sqrt(n))/2 of the real
quadratic field Q(sqrt(n)), n squarefree and at least 2.  The half
coordinates a and b are kept as exact ``Fraction`` values so that the
elements stay closed under division; inputs built from integers satisfy
the usual algebraic-integer congruence test, see
``is_algebraic_integer``.

Everything below is exact.  There is no floating point in any code
path: signs, root counts and comparisons are decided with integer and
``fractions.Fraction`` arithmetic only.

Polynomials stay in plain ``int``: gcds and Sturm chains are primitive
pseudo-remainder sequences (a chain member is negated and multiplied by
sign(lc)^k, a positive multiple of the classical one), division is
exact, and the sign of p at a/b (b > 0) is that of b^d * p(a/b).  For a
squarefree p the variation difference V(a) - V(b) counts the distinct
real roots in (a, b]; ``sturm_real_root_count`` adjusts for the other
interval shapes.  ``isolate_real_roots`` returns points for rational
roots and open intervals holding one irrational root each; refinement
bisects on the sign at the midpoint and needs no chain.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

Rational = Union[int, Fraction]


class UnsupportedDegreeError(ValueError):
    """Polynomial degree outside the range an operation supports."""


def _as_fraction(v: Rational) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an integer or Fraction, got {type(v).__name__}")


# ---------------------------------------------------------------------------
# integer helpers


def is_perfect_square(m: int) -> Optional[int]:
    """Return s >= 0 with s*s == m, or None when m is not a square."""
    if m < 0:
        return None
    s = math.isqrt(m)
    return s if s * s == m else None


def factor_integer(m: int) -> list[tuple[int, int]]:
    """Prime factorisation of |m| as (prime, exponent) pairs, primes
    ascending, by trial division over the shrinking cofactor.  Requires
    m != 0; 1 factors as the empty list."""
    if m == 0:
        raise ValueError("cannot factor 0")
    m = abs(m)
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def divisors(m: int) -> list[int]:
    """Positive divisors of |m|, ascending.  Requires m != 0."""
    out = [1]
    for p, e in factor_integer(m):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def squarefree_part(m: int) -> int:
    """Largest squarefree divisor pattern of m: the product of primes
    appearing to an odd power, with the sign of m.  Requires m != 0."""
    if m == 0:
        raise ValueError("squarefree part of 0 is undefined")
    part = -1 if m < 0 else 1
    for p, e in factor_integer(m):
        if e % 2:
            part *= p
    return part


def fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root of a rational, or None."""
    if q < 0:
        return None
    num = is_perfect_square(q.numerator)
    if num is None:
        return None
    den = is_perfect_square(q.denominator)
    if den is None:
        return None
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate integer polynomial, coefficients constant term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        cs = []
        for c in self.coeffs:
            ic = int(c)
            if ic != c:
                raise TypeError(f"integer coefficients required, got {c!r}")
            cs.append(ic)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, k: int) -> int:
        """Coefficient of x^k (0 when k exceeds the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def evaluate(self, x):
        """Horner evaluation; works for any commutative ring element."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Rational) -> int:
        """Sign of p(x) at a rational x, from the integer b^d * p(a/b)."""
        return _sign(_eval_hom(self.coeffs, x.numerator, x.denominator))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def shifted(self, c: int) -> "IntPolynomial":
        """The polynomial p(x + c)."""
        acc = IntPolynomial(())
        unit = IntPolynomial((c, 1))
        for coeff in reversed(self.coeffs):
            acc = acc * unit + IntPolynomial((coeff,))
        return acc

    def content(self) -> int:
        """gcd of the coefficients, carrying the sign of the leading one."""
        if self.is_zero:
            return 0
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return -g if self.leading < 0 else g

    def primitive(self) -> "IntPolynomial":
        """self divided by its content; leading coefficient positive."""
        c = self.content()
        if c == 0:
            raise ValueError("zero polynomial has no primitive part")
        return IntPolynomial(tuple(k // c for k in self.coeffs))

    def squarefree_part(self) -> "IntPolynomial":
        """Primitive polynomial with the same roots, all simple."""
        if self.degree < 1:
            raise UnsupportedDegreeError("squarefree part needs degree >= 1")
        return _exact_quotient(self, _poly_gcd(self, self.derivative())).primitive()

    def is_squarefree(self) -> bool:
        if self.degree < 1:
            return not self.is_zero
        return _poly_gcd(self, self.derivative()).degree == 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                x = "x" if k == 1 else f"x^{k}"
                body = x if mag == 1 else f"{mag}{x}"
            parts.append(sign + body)
        return "".join(parts)


def _divide_content(cs: list[int]) -> list[int]:
    """cs divided by the positive gcd of its entries; signs are kept."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _eval_hom(cs: Sequence[int], a: int, b: int) -> int:
    """b^d * p(a/b) for p = cs of degree d, by homogenised Horner; for
    b > 0 it has the sign of p(a/b)."""
    if not cs:
        return 0
    acc, scale = cs[-1], 1
    for c in cs[-2::-1]:
        scale *= b
        acc = acc * a + c * scale
    return acc


def _prem(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Pseudo-remainder lc(den)^(deg num - deg den + 1) * num mod den,
    computed in integers."""
    num = list(num)
    top, lead = len(den) - 1, den[-1]
    for k in range(len(num) - len(den), -1, -1):
        f = num.pop()  # lead * f - f * lead: the top coefficient cancels
        num = [c * lead for c in num]
        for i in range(top):
            num[k + i] -= f * den[i]
    while num and num[-1] == 0:
        num.pop()
    return num


def _exact_quotient(p: IntPolynomial, d: IntPolynomial) -> IntPolynomial:
    """p / d by exact integer division, for a d that divides p over Q
    with an integral quotient, as a primitive d does by Gauss's lemma."""
    num, top = list(p.coeffs), d.degree
    q = [0] * (len(num) - top)
    for k in range(len(q) - 1, -1, -1):
        q[k] = num[k + top] // d.leading
        for i, c in enumerate(d.coeffs):
            num[k + i] -= q[k] * c
    assert not any(num), "division is not exact"
    return IntPolynomial(tuple(q))


def _poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """gcd over Q by the primitive pseudo-remainder sequence, returned
    primitive with positive leading coefficient."""
    a, b = list(p.coeffs), list(q.coeffs)
    while b:
        a, b = b, _divide_content(_prem(a, b))
    if not a:
        return IntPolynomial(())
    return IntPolynomial(tuple(a)).primitive()


# ---------------------------------------------------------------------------
# resultants and discriminants


def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Resultant via the Sylvester matrix, fraction-free elimination."""
    if p.is_zero or q.is_zero:
        raise ValueError("resultant needs nonzero polynomials")
    m, n = p.degree, q.degree
    if m == 0:
        return p.leading ** n
    if n == 0:
        return q.leading ** m
    size = m + n
    pd = list(reversed(p.coeffs))
    qd = list(reversed(q.coeffs))
    rows: list[list[int]] = []
    for i in range(n):
        rows.append([0] * i + pd + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + qd + [0] * (size - n - 1 - i))
    return _bareiss_det(rows)


def _bareiss_det(m: list[list[int]]) -> int:
    """Integer determinant by Bareiss one-step elimination (exact)."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # every division here is exact, this is the Bareiss identity
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def poly_discriminant(p: IntPolynomial) -> int:
    """Discriminant for degrees 2, 3 and 4.

    Quadratic and cubic use the closed forms; the quartic goes through
    the resultant of p and p', normalized by the leading coefficient.
    """
    n = p.degree
    if n == 2:
        c, b, a = p.coeffs
        return b * b - 4 * a * c
    if n == 3:
        d, c, b, a = p.coeffs
        return (
            18 * a * b * c * d
            - 4 * b ** 3 * d
            + b ** 2 * c ** 2
            - 4 * a * c ** 3
            - 27 * a ** 2 * d ** 2
        )
    if n == 4:
        res = resultant(p, p.derivative())
        # deg 4: (-1)^(n(n-1)/2) = +1
        q, r = divmod(res, p.leading)
        assert r == 0
        return q
    raise UnsupportedDegreeError(f"discriminant supports degrees 2..4, got {n}")


# ---------------------------------------------------------------------------
# rational roots and factorization


def rational_roots(p: IntPolynomial) -> list[Fraction]:
    """All rational roots with multiplicity, ascending.

    Candidates come from the rational root theorem: in lowest terms a
    root u/v has u dividing the constant term and v dividing the
    leading coefficient.  Each is tested by the integer v^d p(u/v), and
    each root is divided out exactly as (v x - u) before the next test.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    zeros = next(k for k, c in enumerate(p.coeffs) if c)
    work = IntPolynomial(p.coeffs[zeros:])
    roots = [Fraction(0)] * zeros
    if work.degree >= 1:
        tops = divisors(work.coeffs[0])
        for v in divisors(work.leading):
            for u in (u for t in tops if math.gcd(t, v) == 1 for u in (t, -t)):
                while work.degree >= 1 and _eval_hom(work.coeffs, u, v) == 0:
                    work = _exact_quotient(work, IntPolynomial((-u, v)))
                    roots.append(Fraction(u, v))
    return sorted(roots)


def _divide_out_roots(p: IntPolynomial, roots: Sequence[Fraction]) -> IntPolynomial:
    """Primitive p divided exactly by (v x - u) for each root u/v."""
    for r in roots:
        p = _exact_quotient(p, IntPolynomial((-r.numerator, r.denominator)))
    return p


def factor_over_rationals(p: IntPolynomial) -> list[IntPolynomial]:
    """Irreducible factors over Q with integer coefficients.

    Each factor is primitive with positive leading coefficient and
    multiplicities are expanded, so content(p) times the product of the
    returned list reproduces p.  Output is sorted by degree and then by
    the coefficient tuple.  Supported degrees are 1 through 4; after
    removing rational roots a residual quartic is split, when possible,
    by an integer coefficient search over pairs of quadratics.
    """
    if p.degree < 1 or p.degree > 4:
        raise UnsupportedDegreeError(f"factorization supports degrees 1..4, got {p.degree}")
    p0 = p.primitive()
    roots = rational_roots(p0)
    work = _divide_out_roots(p0, roots)
    factors = [IntPolynomial((-r.numerator, r.denominator)) for r in roots]
    if work.degree == 4:
        split = _quartic_quadratic_split(work)
        if split is not None:
            factors.extend(split)
            work = IntPolynomial((1,))
    if work.degree >= 1:
        factors.append(work.primitive())
    factors.sort(key=lambda f: (f.degree, f.coeffs))
    prod = IntPolynomial((1,))
    for f in factors:
        prod = prod * f
    assert prod * p.content() == p
    return factors


def _quartic_quadratic_split(
    r: IntPolynomial,
) -> Optional[tuple[IntPolynomial, IntPolynomial]]:
    """Split a primitive quartic with no rational roots into two integer
    quadratics (a x^2 + b x + c)(d x^2 + e x + f), or return None.

    a d = p4 and c f = p0 leave b, e subject to the linear system
    d b + a e = p3, f b + c e = p1; a singular system falls back to an
    integer quadratic in b.  Every candidate is verified by expansion.
    """
    p0, p1, p2, p3, p4 = (r.coefficient(k) for k in range(5))
    for a in divisors(p4):
        d = p4 // a
        for c_abs in divisors(p0):
            for c in (c_abs, -c_abs):
                f = p0 // c
                det = d * c - a * f
                candidates: list[tuple[int, int]] = []
                if det != 0:
                    bn = c * p3 - a * p1
                    en = d * p1 - f * p3
                    if bn % det == 0 and en % det == 0:
                        candidates.append((bn // det, en // det))
                else:
                    # singular system: eliminate e through a e = p3 - d b
                    # leaving d b^2 - p3 b + a (p2 - a f - c d) = 0
                    const = a * (p2 - a * f - c * d)
                    disc = p3 * p3 - 4 * d * const
                    s = is_perfect_square(disc)
                    if s is None:
                        continue
                    for num in (p3 + s, p3 - s):
                        if num % (2 * d):
                            continue
                        b = num // (2 * d)
                        if (p3 - d * b) % a:
                            continue
                        candidates.append((b, (p3 - d * b) // a))
                for b, e in candidates:
                    g = IntPolynomial((c, b, a))
                    h = IntPolynomial((f, e, d))
                    if g * h == r:
                        out = sorted(
                            (g.primitive(), h.primitive()),
                            key=lambda q: (q.degree, q.coeffs),
                        )
                        return out[0], out[1]
    return None


# ---------------------------------------------------------------------------
# intervals and Sturm chains


@dataclass(frozen=True)
class Interval:
    """Rational interval; a None endpoint means unbounded on that side.

    Degenerate points are closed on both sides.  Isolating intervals
    produced here contain exactly one real root of their polynomial.
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self) -> None:
        lo = None if self.lo is None else _as_fraction(self.lo)
        hi = None if self.hi is None else _as_fraction(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo is None and not self.lo_open:
            raise ValueError("unbounded endpoint cannot be closed")
        if hi is None and not self.hi_open:
            raise ValueError("unbounded endpoint cannot be closed")
        if lo is not None and hi is not None:
            if lo > hi:
                raise ValueError("interval endpoints out of order")
            if lo == hi and (self.lo_open or self.hi_open):
                raise ValueError("degenerate interval must be closed")

    @staticmethod
    def point(r: Rational) -> "Interval":
        r = _as_fraction(r)
        return Interval(r, r, lo_open=False, hi_open=False)

    @staticmethod
    def open(lo: Rational, hi: Rational) -> "Interval":
        return Interval(_as_fraction(lo), _as_fraction(hi))

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def width(self) -> Optional[Fraction]:
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo

    def contains(self, x: Rational) -> bool:
        x = _as_fraction(x)
        if self.lo is not None and (x < self.lo or (self.lo_open and x == self.lo)):
            return False
        if self.hi is not None and (x > self.hi or (self.hi_open and x == self.hi)):
            return False
        return True


def sturm_chain(p: IntPolynomial) -> list[tuple[int, ...]]:
    """Sturm chain of a squarefree polynomial as integer tuples: p, p',
    then minus each remainder, up to a positive factor."""
    if p.degree < 1:
        raise UnsupportedDegreeError("Sturm chain needs degree >= 1")
    chain = [_divide_content(list(p.coeffs)), _divide_content(list(p.derivative().coeffs))]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        rem = _prem(a, b)
        if not rem:
            # the last member is gcd(p, p') and it is not constant
            raise ValueError("polynomial must be squarefree (divide by gcd(p, p') first)")
        # prem = lc(b)^k * rem with k = deg a - deg b + 1; the member is -rem
        flip = b[-1] > 0 or (len(a) - len(b)) % 2
        chain.append(_divide_content([-c for c in rem] if flip else rem))
    return [tuple(cs) for cs in chain]


def _sign(x: Rational) -> int:
    return (x > 0) - (x < 0)


def _variations(chain: Sequence[Sequence[int]], x: Optional[Fraction], at_neg_inf: bool = False) -> int:
    if x is None:
        odd = -1 if at_neg_inf else 1
        signs = [_sign(cs[-1]) * (odd if (len(cs) - 1) % 2 else 1) for cs in chain]
    else:
        a, b = x.numerator, x.denominator
        signs = [s for cs in chain if (s := _sign(_eval_hom(cs, a, b))) != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_real_root_count(p: IntPolynomial, interval: Optional[Interval] = None) -> int:
    """Distinct real roots of a squarefree p inside the interval.

    With no interval, counts over all of R.  Endpoint membership follows
    the interval's openness flags; the underlying chain counts on the
    half open (lo, hi].
    """
    chain = sturm_chain(p)
    if interval is None:
        return _variations(chain, None, at_neg_inf=True) - _variations(chain, None)
    lo, hi = interval.lo, interval.hi
    count = _variations(chain, lo, at_neg_inf=lo is None) - _variations(chain, hi)
    if hi is not None and interval.hi_open and p.sign_at(hi) == 0:
        count -= 1
    if lo is not None and not interval.lo_open and p.sign_at(lo) == 0:
        count += 1
    return count


def _cauchy_bound(p: IntPolynomial) -> Fraction:
    """Strict bound B: every real root lies in (-B, B)."""
    lead = abs(p.leading)
    top = max(abs(c) for c in p.coeffs[:-1]) if p.degree >= 1 else 0
    return 1 + Fraction(top, lead)


def isolate_real_roots(p: IntPolynomial) -> list[Interval]:
    """Disjoint isolating intervals for the real roots of a squarefree p.

    Rational roots come back as degenerate point intervals; every other
    interval is open with rational endpoints and holds exactly one
    irrational root.  Sorted ascending.
    """
    if p.degree < 1:
        raise UnsupportedDegreeError("root isolation needs degree >= 1")
    if not p.is_squarefree():
        raise ValueError("polynomial must be squarefree (divide by gcd(p, p') first)")
    p0 = p.primitive()
    roots = rational_roots(p0)
    work = _divide_out_roots(p0, roots)
    points = [Interval.point(root) for root in roots]
    opens: list[Interval] = []
    if work.degree >= 1:
        chain = sturm_chain(work)

        def count(lo: Fraction, hi: Fraction) -> int:
            return _variations(chain, lo) - _variations(chain, hi)

        bound = _cauchy_bound(work)
        stack: list[tuple[Fraction, Fraction]] = [(-bound, bound)]
        while stack:
            lo, hi = stack.pop()
            k = count(lo, hi)
            if k == 0:
                continue
            if k == 1:
                # shrink past any rational root of the original polynomial,
                # so intervals stay disjoint from the point results
                for r in roots:
                    if lo < r < hi:
                        if count(lo, r) == 1:
                            hi = r
                        else:
                            lo = r
                opens.append(Interval.open(lo, hi))
                continue
            mid = (lo + hi) / 2
            stack.append((lo, mid))
            stack.append((mid, hi))
    out = points + opens
    out.sort(key=lambda iv: iv.lo)
    return out


def refine_interval(p: IntPolynomial, iv: Interval, max_width: Rational) -> Interval:
    """Shrink an isolating interval of p below max_width by bisecting on
    the sign at the midpoint.  When p changes sign between the ends, the
    one root inside has odd multiplicity and p itself is bisected;
    otherwise the squarefree part s is, whose sign just right of lo is
    that of s(lo), or of s'(lo) when lo is a root, which is simple.  A
    midpoint root comes back as a point interval."""
    if iv.is_point:
        return iv
    if iv.lo is None or iv.hi is None:
        raise ValueError("cannot refine an unbounded interval")
    max_width = _as_fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    lo, hi = iv.lo, iv.hi
    sf, lo_sign = p, p.sign_at(lo)
    if lo_sign * p.sign_at(hi) >= 0:
        sf = p.squarefree_part()
        lo_sign = sf.sign_at(lo) or sf.derivative().sign_at(lo)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        s = _sign(_eval_hom(sf.coeffs, mid.numerator, mid.denominator))
        if s == 0:
            return Interval.point(mid)
        if s == lo_sign:
            lo = mid
        else:
            hi = mid
    return Interval.open(lo, hi)


# ---------------------------------------------------------------------------
# quadratic field elements


def _field_sign(a: Fraction, b: Fraction, n: int) -> int:
    """Sign of (a + b*sqrt(n))/2: that of a when b is 0, that of b when
    a is 0 or has b's sign, else decided by comparing a^2 with n b^2."""
    if b == 0:
        return _sign(a)
    if a == 0 or (a > 0) == (b > 0):
        return _sign(b)
    cmp = _sign(a * a - n * b * b)
    assert cmp != 0, "sqrt(n) cannot be rational"
    return cmp if a > 0 else -cmp


_QFE_ROOT = re.compile(
    r"^(?:(?P<rat>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<coef>[+-]?(?:\d+(?:/\d+)?)?)r(?P<n>\d+)$"
)


@dataclass(frozen=True, eq=False)
class QuadraticFieldElement:
    """Element (a + b*sqrt(n))/2 of the real quadratic field Q(sqrt(n)).

    a and b are exact rationals; n is squarefree and at least 2.
    Arithmetic between elements requires a common n, except that purely
    rational elements (b = 0) mix freely.  Ordering is the real-number
    order, decided exactly.
    """

    a: Fraction
    b: Fraction
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        if self.n < 2 or squarefree_part(self.n) != self.n:
            raise ValueError(f"field generator must be squarefree and >= 2, got {self.n}")

    # -- construction helpers

    @staticmethod
    def from_rational(q: Rational, n: int = 2) -> "QuadraticFieldElement":
        q = _as_fraction(q)
        return QuadraticFieldElement(2 * q, Fraction(0), n)

    @staticmethod
    def parse(text: str, default_n: Optional[int] = None) -> "QuadraticFieldElement":
        """Parse the scalar grammar: "14", "4/7", "14+5r5", "3/2+1/2r5",
        "-2r3".  The letter r marks the square root and the trailing
        integer is the squarefree part."""
        t = text.strip().replace(" ", "")
        if "r" not in t:
            try:
                rat = Fraction(t)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"cannot parse quadratic field element {text!r}") from exc
            if default_n is None:
                raise ValueError(f"purely rational literal {text!r} needs a field hint")
            return QuadraticFieldElement.from_rational(rat, default_n)
        m = _QFE_ROOT.match(t)
        if not m:
            raise ValueError(f"cannot parse quadratic field element {text!r}")
        rat = Fraction(m.group("rat")) if m.group("rat") else Fraction(0)
        raw = m.group("coef")
        if raw in ("", "+"):
            coef = Fraction(1)
        elif raw == "-":
            coef = Fraction(-1)
        else:
            coef = Fraction(raw)
        return QuadraticFieldElement(2 * rat, 2 * coef, int(m.group("n")))

    # -- basic queries

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a / 2

    def conjugate(self) -> "QuadraticFieldElement":
        return QuadraticFieldElement(self.a, -self.b, self.n)

    def trace(self) -> Fraction:
        return self.a

    def norm(self) -> Fraction:
        return (self.a * self.a - self.n * self.b * self.b) / 4

    def is_algebraic_integer(self) -> bool:
        """True when a, b are integers with a^2 = n b^2 (mod 4)."""
        if self.a.denominator != 1 or self.b.denominator != 1:
            return False
        a, b = int(self.a), int(self.b)
        return (a * a - self.n * b * b) % 4 == 0

    def sign(self) -> int:
        return _field_sign(self.a, self.b, self.n)

    def is_totally_positive(self) -> bool:
        return self.sign() > 0 and self.conjugate().sign() > 0

    # -- arithmetic

    def _operand(self, other) -> Optional[tuple[Fraction, Fraction, int]]:
        """Half coordinates of a scalar other and the field of the result,
        or None for a non-scalar; a rational side takes the other's field."""
        if isinstance(other, QuadraticFieldElement):
            if other.n == self.n or other.b == 0:
                return other.a, other.b, self.n
            if self.b == 0:
                return other.a, other.b, other.n
            raise ValueError(f"mixed field generators {self.n} and {other.n}")
        if isinstance(other, (int, Fraction)):
            return 2 * _as_fraction(other), Fraction(0), self.n
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, n = o
        return QuadraticFieldElement(self.a + a, self.b + b, n)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticFieldElement(-self.a, -self.b, self.n)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, n = o
        return QuadraticFieldElement(self.a - a, self.b - b, n)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, n = o
        return QuadraticFieldElement((self.a * a + n * self.b * b) / 2,
                                     (self.a * b + self.b * a) / 2, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, n = o
        # self * conjugate(other) / norm(other), with 4 * norm = a^2 - n b^2
        scale = (a * a - n * b * b) / 2
        if scale == 0:
            raise ZeroDivisionError("division by zero field element")
        return QuadraticFieldElement((self.a * a - n * self.b * b) / scale,
                                     (self.b * a - self.a * b) / scale, n)

    def __rtruediv__(self, other):
        return QuadraticFieldElement.from_rational(_as_fraction(other), self.n) / self

    # -- comparisons

    def _diff_sign(self, other) -> int:
        o = self._operand(other)
        if o is None:
            raise TypeError(f"cannot compare with {type(other).__name__}")
        a, b, n = o
        return _field_sign(self.a - a, self.b - b, n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_fraction() == other
        if isinstance(other, QuadraticFieldElement):
            if self.is_rational or other.is_rational:
                return (
                    self.is_rational
                    and other.is_rational
                    and self.as_fraction() == other.as_fraction()
                )
            return self.n == other.n and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self.a, self.b, self.n))

    def __lt__(self, other) -> bool:
        return self._diff_sign(other) < 0

    def __le__(self, other) -> bool:
        return self._diff_sign(other) <= 0

    def __gt__(self, other) -> bool:
        return self._diff_sign(other) > 0

    def __ge__(self, other) -> bool:
        return self._diff_sign(other) >= 0

    # -- square roots inside the field

    def sqrt(self) -> Optional["QuadraticFieldElement"]:
        """The positive y in the same field with y*y == self, if any.

        Writing y = (u + v*sqrt(n))/2 forces u^2 + n v^2 = 2a and
        u v = b, so u^2 solves a quadratic whose radical is the square
        root of the norm; everything stays rational-exact.
        """
        s = self.sign()
        if s < 0:
            return None
        if s == 0:
            return QuadraticFieldElement(Fraction(0), Fraction(0), self.n)
        if self.is_rational:
            q = self.as_fraction()
            root = fraction_sqrt(q)
            if root is not None:
                return QuadraticFieldElement.from_rational(root, self.n)
            root = fraction_sqrt(q / self.n)
            if root is not None:
                return QuadraticFieldElement(Fraction(0), 2 * root, self.n)
            return None
        r = fraction_sqrt(self.norm())
        if r is None:
            return None
        for u2 in (self.a + 2 * r, self.a - 2 * r):
            u = fraction_sqrt(u2)
            if u is None or u == 0:
                continue
            v = self.b / u
            cand = QuadraticFieldElement(u, v, self.n)
            if cand * cand == self:
                return cand if cand.sign() > 0 else -cand
        return None

    # -- rendering

    def __str__(self) -> str:
        rat = self.a / 2
        coef = self.b / 2
        if coef == 0:
            return str(rat)
        root = f"r{self.n}"
        if rat == 0:
            return f"{coef}{root}"
        sign = "+" if coef > 0 else "-"
        return f"{rat}{sign}{abs(coef)}{root}"

    def __repr__(self) -> str:
        return f"QuadraticFieldElement({self.a!r}, {self.b!r}, {self.n})"
