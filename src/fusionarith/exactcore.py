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

Polynomials stay in plain ``int``: one primitive pseudo-remainder
sequence gives Sturm chains and gcd(p, p') alike (a member is negated
and multiplied by sign(lc)^k, a positive multiple of the classical one),
``evaluate`` at a polynomial composes, division is exact, and the sign
of p at a/b (b > 0) is that of b^d * p(a/b), with (+-1, 0) standing for
+-oo.  For a squarefree p the variation difference V(a) - V(b) counts
the distinct real roots in (a, b], the one shape
``sturm_real_root_count`` takes.  ``isolate_real_roots`` takes a
polynomial with no rational and no repeated root, such as an
irreducible factor of degree 2 or 3, and returns open intervals holding
one root each; refinement bisects on the sign at the midpoint and needs
no chain.  Both bisect on integer ends over a doubling denominator, and
``Fraction`` appears only in the intervals they return.  No engine path
calls ``isolate_real_roots`` or ``refine_interval``; they stay because
tests and the ``LAYERS`` table of ``perfbench/traced_cli.py`` name them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._record import record

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


@record
class IntPolynomial:
    """Univariate integer polynomial, coefficients constant term first."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]) -> None:
        cs = []
        for c in coeffs:
            # a float is refused even when integral, as QuadraticFieldElement does
            ic = None if isinstance(c, float) else int(c)
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

    def evaluate(self, x):
        """Horner evaluation at any commutative ring element; at an
        IntPolynomial q it is the composition p(q)."""
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

    def __add__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)))

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

    def content(self) -> int:
        """gcd of the coefficients, carrying the sign of the leading one."""
        g = math.gcd(*self.coeffs)
        return -g if g and self.leading < 0 else g

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
        return _exact_quotient(self, IntPolynomial(_prs(self)[-1])).primitive()

    def __str__(self) -> str:
        return poly_text(self.coeffs)


def poly_text(cs: Sequence[int]) -> str:
    """The polynomial with coefficients cs, constant term first, as text,
    highest power first: (-392, 308, -14, 1) is x^3-14x^2+308x-392."""
    parts: list[str] = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c:
            x = "" if not k else "x" if k == 1 else f"x^{k}"
            body = x if k and abs(c) == 1 else f"{abs(c)}{x}"
            parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


def _divide_content(cs: list[int]) -> list[int]:
    """cs divided by the positive gcd of its entries; signs are kept."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _eval_hom(cs: Sequence[int], a: int, b: int) -> int:
    """b^d * p(a/b) for p = cs of degree d, by homogenised Horner; for
    b > 0 it has the sign of p(a/b), and (a, b) = (+-1, 0) gives
    lc * (+-1)^d, the sign of p at +-oo."""
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


# ---------------------------------------------------------------------------
# discriminants


def poly_discriminant(p: IntPolynomial | Sequence[int]) -> int:
    """Discriminant of a quadratic or a cubic, given as a polynomial or
    by its coefficients, by the closed forms; other degrees raise
    UnsupportedDegreeError."""
    cs = p.coeffs if isinstance(p, IntPolynomial) else p
    n = len(cs) - 1
    if n == 2:
        c, b, a = cs
        return b * b - 4 * a * c
    if n == 3:
        d, c, b, a = cs
        return (
            18 * a * b * c * d
            - 4 * b ** 3 * d
            + b ** 2 * c ** 2
            - 4 * a * c ** 3
            - 27 * a ** 2 * d ** 2
        )
    raise UnsupportedDegreeError(f"discriminant supports degrees 2 and 3, got {n}")


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


def factor_over_rationals(p: IntPolynomial) -> list[IntPolynomial]:
    """Irreducible factors over Q with integer coefficients.

    The rational roots of the primitive part of p are divided out; what
    remains has no rational root, so at degree 2 or 3 it has no linear
    factor and is irreducible.  A remainder of degree 4 or more raises
    UnsupportedDegreeError.  Each factor is primitive with positive
    leading coefficient and multiplicities are expanded, so content(p)
    times the product of the returned list reproduces p.  Output is
    sorted by degree and then by the coefficient tuple.
    """
    if p.degree < 1:
        raise UnsupportedDegreeError(f"factorization needs degree >= 1, got {p.degree}")
    work = p0 = p.primitive()
    roots = rational_roots(p0)
    for r in roots:
        work = _exact_quotient(work, IntPolynomial((-r.numerator, r.denominator)))
    if work.degree > 3:
        raise UnsupportedDegreeError(f"no factorization of a degree {work.degree} remainder")
    factors = [IntPolynomial((-r.numerator, r.denominator)) for r in roots]
    if work.degree >= 1:
        factors.append(work)
    factors.sort(key=lambda f: (f.degree, f.coeffs))
    prod = IntPolynomial((1,))
    for f in factors:
        prod = prod * f
    assert prod * p.content() == p
    return factors


# ---------------------------------------------------------------------------
# intervals and Sturm chains


@record
class Interval:
    """Open isolating interval (lo, hi) with rational ends, holding one
    real root of its polynomial."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _as_fraction(self.lo))
        object.__setattr__(self, "hi", _as_fraction(self.hi))
        if self.lo >= self.hi:
            raise ValueError("an open interval needs lo < hi")

    def width(self) -> Fraction:
        return self.hi - self.lo


def _prs(p: IntPolynomial) -> list[list[int]]:
    """Primitive remainder sequence of p of degree >= 1: p, p', then minus
    each pseudo-remainder, each up to a positive factor, down to the last
    nonzero member, which is gcd(p, p')."""
    chain = [_divide_content(list(p.coeffs)), _divide_content(list(p.derivative().coeffs))]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        rem = _prem(a, b)
        if not rem:
            break
        # prem = lc(b)^k * rem with k = deg a - deg b + 1; the member is -rem
        flip = b[-1] > 0 or (len(a) - len(b)) % 2
        chain.append(_divide_content([-c for c in rem] if flip else rem))
    return chain


def sturm_chain(p: IntPolynomial) -> list[tuple[int, ...]]:
    """Sturm chain of a squarefree polynomial as integer tuples: its
    remainder sequence, which ends in a constant."""
    if p.degree < 1:
        raise UnsupportedDegreeError("Sturm chain needs degree >= 1")
    chain = _prs(p)
    if len(chain[-1]) > 1:
        raise ValueError("polynomial must be squarefree (divide by gcd(p, p') first)")
    return [tuple(cs) for cs in chain]


def _sign(x: Rational) -> int:
    return (x > 0) - (x < 0)


def _variations(chain: Sequence[Sequence[int]], a: int, b: int) -> int:
    """Sign changes along the chain at a/b, zeros skipped, from the
    integers b^d * member(a/b); b > 0, or (a, b) = (+-1, 0) for +-oo."""
    signs = [s for cs in chain if (s := _sign(_eval_hom(cs, a, b)))]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def sturm_real_root_count(p: IntPolynomial, lo: Optional[Rational] = None,
                          hi: Optional[Rational] = None) -> int:
    """Distinct real roots of a squarefree p in (lo, hi]; a missing end
    is unbounded, so with neither end the count is over all of R."""
    chain = sturm_chain(p)
    a, b = (-1, 0) if lo is None else (lo.numerator, lo.denominator)
    c, d = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    return _variations(chain, a, b) - _variations(chain, c, d)


def _cauchy_bound(p: IntPolynomial) -> Fraction:
    """Strict bound B: every real root lies in (-B, B)."""
    lead = abs(p.leading)
    top = max(abs(c) for c in p.coeffs[:-1])
    return 1 + Fraction(top, lead)


def isolate_real_roots(p: IntPolynomial) -> list[Interval]:
    """Open isolating intervals, ascending, for the real roots of a p of
    degree >= 1 with no rational and no repeated root, such as an
    irreducible factor of degree 2 or 3.  The Sturm chain raises
    ValueError on a repeated root and so does a root at a bisection
    midpoint, so no interval ends at a root.  A stack entry holds two
    integer ends over one denominator, the Cauchy bound's times a power
    of 2, and the variation counts there, so each midpoint's chain is
    evaluated once."""
    chain = sturm_chain(p)
    bound = _cauchy_bound(p)
    u, v = bound.numerator, bound.denominator
    stack = [(-u, u, v, _variations(chain, -u, v), _variations(chain, u, v))]
    out: list[Interval] = []
    while stack:
        lo, hi, den, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append(Interval(Fraction(lo, den), Fraction(hi, den)))
        elif v_lo - v_hi > 1:
            mid, den = lo + hi, 2 * den
            if _eval_hom(chain[0], mid, den) == 0:
                raise ValueError(f"{p} has the rational root {Fraction(mid, den)}")
            v_mid = _variations(chain, mid, den)
            stack.append((2 * lo, mid, den, v_lo, v_mid))
            stack.append((mid, 2 * hi, den, v_mid, v_hi))
    out.sort(key=lambda iv: iv.lo)
    return out


def refine_interval(p: IntPolynomial, iv: Interval, max_width: Rational) -> Interval:
    """Shrink an interval at whose ends p has opposite signs below
    max_width, by bisecting on the sign of p at the midpoint; a root at
    a midpoint raises ValueError."""
    max_width = _as_fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    lo_sign = p.sign_at(iv.lo)
    if lo_sign * p.sign_at(iv.hi) >= 0:
        raise ValueError(f"{p} does not change sign between {iv.lo} and {iv.hi}")
    den = math.lcm(iv.lo.denominator, iv.hi.denominator)
    lo, hi = iv.lo.numerator * den // iv.lo.denominator, iv.hi.numerator * den // iv.hi.denominator
    # halving doubles den and keeps hi - lo
    span, w_num, w_den = hi - lo, max_width.numerator, max_width.denominator
    while span * w_den > w_num * den:
        mid, den = lo + hi, 2 * den
        s = _sign(_eval_hom(p.coeffs, mid, den))
        if s == 0:
            raise ValueError(f"{p} has the rational root {Fraction(mid, den)}")
        if s == lo_sign:
            lo, hi = mid, 2 * hi
        else:
            lo, hi = 2 * lo, mid
    return Interval(Fraction(lo, den), Fraction(hi, den))


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


@record
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
