"""Exact arithmetic groundwork: integer polynomials, Sturm isolation,
and quadratic field elements."""
from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusionarith.exactcore import (
    Interval,
    IntPolynomial,
    QuadraticFieldElement,
    UnsupportedDegreeError,
    divisors,
    factor_integer,
    factor_over_rationals,
    fraction_sqrt,
    is_perfect_square,
    isolate_real_roots,
    poly_discriminant,
    rational_roots,
    refine_interval,
    squarefree_part,
    sturm_real_root_count,
)
from oracles import (
    _int_divisors,
    _primitive_int,
    _squarefree,
    bisection_real_root_count,
    squarefree_part_oracle,
)

coeff = st.integers(min_value=-25, max_value=25)


def P(*cs: int) -> IntPolynomial:
    return IntPolynomial(tuple(cs))


# ---------------------------------------------------------------------------
# integer helpers


def test_perfect_square_detection():
    assert is_perfect_square(0) == 0
    assert is_perfect_square(49) == 7
    assert is_perfect_square(50) is None
    assert is_perfect_square(-4) is None


@given(st.integers(min_value=-400, max_value=400).filter(lambda m: m != 0))
def test_squarefree_part_matches_trial_division(m):
    assert squarefree_part(m) == squarefree_part_oracle(m)


@given(st.integers(min_value=-400, max_value=400).filter(lambda m: m != 0))
def test_squarefree_part_quotient_is_square(m):
    d = squarefree_part(m)
    assert m % d == 0
    assert is_perfect_square(m // d) is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**6))
def test_factorisation_and_divisors_match_trial_division(m):
    assert divisors(m) == _int_divisors(m)
    factors = factor_integer(m)
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})
    product = 1
    for p, e in factors:
        assert e >= 1 and _int_divisors(p) == [1, p]
        product *= p ** e
    assert product == m


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(-1)) is None
    assert fraction_sqrt(Fraction(0)) == 0


# ---------------------------------------------------------------------------
# polynomial ring operations


def test_constructor_strips_trailing_zeros():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0).is_zero
    assert P().degree == -1


def test_constructor_rejects_non_integers():
    with pytest.raises(TypeError):
        IntPolynomial((Fraction(1, 2),))
    # floats are refused even when integral, as QuadraticFieldElement refuses them
    for value in (1.0, 2.5, float("nan"), float("inf")):
        with pytest.raises(TypeError):
            IntPolynomial((value, 2))


def test_basic_queries():
    p = P(-49, 28, -14, 1)
    assert p.degree == 3
    assert p.leading == 1
    assert p.is_monic
    assert p.evaluate(7) == 343 - 686 + 196 - 49


@given(st.lists(coeff, max_size=5), st.lists(coeff, max_size=5), st.integers(-9, 9))
def test_ring_operations_agree_with_pointwise_evaluation(a, b, x):
    p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p - q).evaluate(x) == p.evaluate(x) - q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (3 * p).evaluate(x) == 3 * p.evaluate(x)


@given(st.lists(coeff, min_size=1, max_size=5), st.integers(-6, 6), st.integers(-6, 6))
def test_shift_is_composition(cs, c, x):
    p = IntPolynomial(tuple(cs))
    assume(not p.is_zero)  # the zero polynomial evaluates to the int 0
    assert p.evaluate(IntPolynomial((c, 1))).evaluate(x) == p.evaluate(x + c)


@given(st.lists(coeff, min_size=1, max_size=4), st.lists(coeff, max_size=3), st.integers(-6, 6))
def test_evaluate_at_a_polynomial_composes(a, b, x):
    p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    assume(not p.is_zero)  # the zero polynomial evaluates to the int 0
    assert p.evaluate(q).evaluate(x) == p.evaluate(q.evaluate(x))


def test_adding_an_integer_and_shifting_zero():
    assert P(1, 2) + 3 == P(4, 2)
    assert P(-3) + 3 == P()
    assert P() + 0 == P()
    assert P().evaluate(P(5, 1)) == 0


def test_derivative():
    assert P(5, 3, -4, 1).derivative() == P(3, -8, 3)
    assert P(7).derivative().is_zero


def test_content_and_primitive():
    p = P(-6, 0, -12)
    assert p.content() == -6
    assert p.primitive() == P(1, 0, 2)
    assert P(4, 6).content() == 2
    assert P().content() == 0
    with pytest.raises(ValueError):
        P().primitive()


def test_squarefree_part_drops_multiplicity():
    square = P(-1, 1) * P(-1, 1) * P(-2, 1)
    assert square.squarefree_part() == P(2, -3, 1)
    assert P(-2, 3, 1).squarefree_part() == P(-2, 3, 1)


@given(st.lists(coeff, min_size=2, max_size=4), st.lists(coeff, max_size=3))
def test_squarefree_part_matches_the_oracle(b_cs, r_cs):
    r = IntPolynomial(tuple(r_cs))
    p = IntPolynomial(tuple(b_cs)) * r * r
    assume(p.degree >= 1)
    expected = _squarefree([Fraction(c) for c in p.coeffs])
    ints = _primitive_int(expected)
    assert p.squarefree_part() == IntPolynomial(tuple(ints if ints[-1] > 0 else (-c for c in ints)))


@pytest.mark.parametrize("p", [
    P(-1, 1) * P(-1, 1) * P(-2, 0, 1),  # repeated rational root
    P(-1, 1) * P(-2, 0, 1) * P(-2, 0, 1),  # repeated irrational roots
])
def test_isolation_rejects_repeated_roots(p):
    with pytest.raises(ValueError, match="must be squarefree"):
        isolate_real_roots(p)


def test_isolation_rejects_a_rational_root_at_a_bisection_midpoint():
    # x^3 - 2x bisects (-3, 3) at its root 0
    with pytest.raises(ValueError, match="rational root 0"):
        isolate_real_roots(P(0, -2, 0, 1))


def test_rendering():
    assert str(P(-343, 196, -28, 1)) == "x^3-28x^2+196x-343"
    assert str(P(18, -12, 1)) == "x^2-12x+18"
    assert str(P(0, -1)) == "-x"
    assert str(P()) == "0"


# ---------------------------------------------------------------------------
# discriminants, rational factorization


@given(st.lists(coeff, min_size=4, max_size=4))
def test_cubic_discriminant_matches_closed_form(cs):
    p = IntPolynomial(tuple(cs))
    if p.degree != 3:
        return
    d, c, b, a = cs
    closed = (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c
              - 4 * a * c**3 - 27 * a * a * d * d)
    assert poly_discriminant(p) == closed


def test_discriminant_known_values():
    assert poly_discriminant(P(1, -3, 0, 1)) == 81
    assert poly_discriminant(P(-1, -1, 0, 1)) == -23
    assert poly_discriminant(P(1, -3, 1)) == 5


@pytest.mark.parametrize("p", [P(3, 1), P(2, 0, 3, 0, 1), P(1, 1, 0, 0, 0, 1)])
def test_discriminant_rejects_degrees_other_than_two_and_three(p):
    with pytest.raises(UnsupportedDegreeError):
        poly_discriminant(p)


def test_rational_roots_of_known_products():
    p = P(-2, 1) * P(3, 2) * P(1, 0, 1)
    assert rational_roots(p) == [Fraction(-3, 2), Fraction(2)]
    assert rational_roots(P(1, 0, 1)) == []


def test_rational_roots_keep_their_multiplicity():
    p = P(-2, 1) * P(-2, 1) * P(0, 1) * P(3, 2)
    assert rational_roots(p) == [Fraction(-3, 2), 0, 2, 2]
    assert factor_over_rationals(p) == [P(-2, 1), P(-2, 1), P(0, 1), P(3, 2)]


@st.composite
def linears_times_a_base(draw) -> IntPolynomial:
    """Up to three linear factors v x + u times a base of degree at most 3,
    of degree at least 1 in all."""
    linears = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=3))
    low = draw(st.lists(coeff, min_size=0 if linears else 1, max_size=3))
    p = IntPolynomial(tuple(low) + (draw(coeff.filter(bool)),))
    for u, v in linears:
        p = p * IntPolynomial((u, v))
    return p


@given(linears_times_a_base())
def test_factorization_multiplies_back(p):
    factors = factor_over_rationals(p)
    prod = IntPolynomial((p.content(),))
    for f in factors:
        prod = prod * f
    assert prod == p
    for f in factors:
        assert 1 <= f.degree <= 3
        assert f.leading > 0 and f.content() == 1
        if f.degree > 1:
            assert rational_roots(f) == []


def test_factorization_keeps_a_cubic_remainder_past_degree_four():
    p = P(-1, 1) * P(3, 2) * P(1, -3, 0, 1)
    assert factor_over_rationals(p) == [P(-1, 1), P(3, 2), P(1, -3, 0, 1)]


@pytest.mark.parametrize("p", [P(1, 0, 1) * P(2, 0, 1), P(0, 1) * P(1, 0, 1) * P(2, 0, 1)])
def test_factorization_rejects_a_remainder_of_degree_four(p):
    with pytest.raises(UnsupportedDegreeError):
        factor_over_rationals(p)


def test_factorization_splits_the_dim7_boundary_cubic():
    fs = factor_over_rationals(P(-343, 196, -28, 1))
    assert P(-7, 1) in fs
    assert P(49, -21, 1) in fs


# ---------------------------------------------------------------------------
# Sturm counting and isolation


def test_interval_basics():
    iv = Interval(Fraction(1), Fraction(2))
    assert iv.width() == 1
    for lo, hi in ((2, 1), (5, 5)):
        with pytest.raises(ValueError, match="needs lo < hi"):
            Interval(lo, hi)


def test_sturm_counts_on_knowns():
    assert sturm_real_root_count(P(1, -3, 1)) == 2
    assert sturm_real_root_count(P(1, 0, 1)) == 0
    assert sturm_real_root_count(P(1, -3, 0, 1)) == 3
    assert sturm_real_root_count(P(-49, 28, -14, 1)) == 1
    assert sturm_real_root_count(P(-729, 405, -54, 1), 0, 10**6) == 3
    assert sturm_real_root_count(P(-729, 405, -54, 1), 0) == 3
    # (lo, hi] leaves a root at lo out and counts a root at hi
    assert sturm_real_root_count(P(-2, 1) * P(-3, 1), 2, 3) == 1
    assert sturm_real_root_count(P(-2, 1) * P(-3, 1), None, 2) == 1


def test_sturm_agrees_with_bisection_oracle_on_seeded_cubics():
    rng = random.Random(60309)
    for _ in range(300):
        cs = [rng.randint(-30, 30) for _ in range(3)] + [rng.randint(1, 30)]
        p = IntPolynomial(tuple(cs))
        assert sturm_real_root_count(p) == bisection_real_root_count(cs), str(p)


def test_isolation_intervals_are_disjoint_sorted_and_exhaustive():
    rng = random.Random(41117)
    tested = 0
    for _ in range(240):
        cs = [rng.randint(-20, 20) for _ in range(4)]
        p = IntPolynomial(tuple(cs))
        if p.degree < 1 or rational_roots(p):
            continue
        p = p.squarefree_part()
        ivs = isolate_real_roots(p)
        assert len(ivs) == sturm_real_root_count(p)
        for left, right in zip(ivs, ivs[1:]):
            assert left.hi <= right.lo
        for iv in ivs:
            assert p.sign_at(iv.lo) * p.sign_at(iv.hi) < 0
            assert sturm_real_root_count(p, iv.lo, iv.hi) == 1
        tested += 1
    assert tested > 120


def test_refinement_shrinks_but_keeps_the_root():
    p = P(-2, 0, 1)
    iv = next(iv for iv in isolate_real_roots(p) if iv.lo >= 0)
    tight = refine_interval(p, iv, Fraction(1, 10**6))
    assert tight.width() <= Fraction(1, 10**6)
    assert sturm_real_root_count(p, tight.lo, tight.hi) == 1


def test_refinement_of_a_repeated_root_matches_its_squarefree_part():
    q = P(-2, 0, 1)
    iv = Interval(1, 2)
    expected = refine_interval(q, iv, Fraction(1, 1000))
    # odd multiplicity keeps the sign change that refinement bisects on
    assert refine_interval(q * q * q, iv, Fraction(1, 1000)) == expected
    # even multiplicity loses it, and so does a root at the lower end
    for p in (q * q * P(-5, 1), q * P(-1, 1) * P(-1, 1), q * P(-1, 1) * P(-1, 1) * P(-1, 1)):
        with pytest.raises(ValueError, match="does not change sign"):
            refine_interval(p, iv, Fraction(1, 1000))


# ---------------------------------------------------------------------------
# quadratic field elements

phi_like = QuadraticFieldElement(Fraction(3), Fraction(1), 5)  # (3+sqrt5)/2


def test_parse_round_trips():
    for text in ("14+5r5", "15/2-5/2r5", "2-1r2", "-2r3", "3/2+1/2r5"):
        elem = QuadraticFieldElement.parse(text)
        assert QuadraticFieldElement.parse(str(elem)) == elem
    assert QuadraticFieldElement.parse("4", default_n=2) == 4
    assert str(QuadraticFieldElement.parse("14+5r5")) == "14+5r5"


def test_parse_rational_needs_field_hint():
    with pytest.raises(ValueError, match="field hint"):
        QuadraticFieldElement.parse("4")
    with pytest.raises(ValueError):
        QuadraticFieldElement.parse("5rr2")


def test_field_generator_must_be_squarefree():
    with pytest.raises(ValueError):
        QuadraticFieldElement(Fraction(1), Fraction(1), 8)
    with pytest.raises(ValueError):
        QuadraticFieldElement(Fraction(1), Fraction(1), 1)


small_frac = st.fractions(
    min_value=-6, max_value=6, max_denominator=4)


@given(small_frac, small_frac, small_frac, small_frac)
def test_field_arithmetic_against_conjugation(a1, b1, a2, b2):
    x = QuadraticFieldElement(a1, b1, 5)
    y = QuadraticFieldElement(a2, b2, 5)
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x + y).trace() == x.trace() + y.trace()
    if y.norm() != 0:
        assert (x / y) * y == x


def test_division_by_zero_element():
    zero = QuadraticFieldElement(Fraction(0), Fraction(0), 5)
    with pytest.raises(ZeroDivisionError):
        phi_like / zero


ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
ORDERING = [operator.lt, operator.le, operator.gt, operator.ge]


@pytest.mark.parametrize("swap", [False, True], ids=["r2-first", "r3-first"])
@pytest.mark.parametrize("op", ARITHMETIC + ORDERING, ids=lambda op: op.__name__)
def test_mixed_generators_reject_arithmetic(op, swap):
    r2 = QuadraticFieldElement(Fraction(0), Fraction(2), 2)
    r3 = QuadraticFieldElement(Fraction(0), Fraction(2), 3)
    with pytest.raises(ValueError, match="mixed field generators"):
        op(*((r3, r2) if swap else (r2, r3)))


@pytest.mark.parametrize("swap", [False, True], ids=["rational-first", "irrational-first"])
@pytest.mark.parametrize("op", ARITHMETIC + ORDERING + [operator.eq], ids=lambda op: op.__name__)
def test_rational_elements_mix_across_generators(op, swap):
    # a rational element of Q(sqrt2) acts as the same rational in Q(sqrt3)
    four_in_r2 = QuadraticFieldElement.from_rational(4, 2)
    four_in_r3 = QuadraticFieldElement.from_rational(4, 3)
    r3 = QuadraticFieldElement(Fraction(0), Fraction(2), 3)
    got = op(*((r3, four_in_r2) if swap else (four_in_r2, r3)))
    assert got == op(*((r3, four_in_r3) if swap else (four_in_r3, r3)))
    assert got == op(*((r3, 4) if swap else (4, r3)))
    if op in ARITHMETIC:
        assert got.n == 3


@given(small_frac, small_frac)
def test_sign_matches_squared_comparison(a, b):
    x = QuadraticFieldElement(a, b, 5)
    s = x.sign()
    if s == 0:
        assert a == 0 and b == 0
    else:
        # x and |x| = s*x must square to the same value, and s*x > 0
        assert (x * x).sign() >= 0
        assert (s * x).sign() > 0 or (a == 0 and b == 0)


def test_ordering_is_the_real_order():
    sqrt5 = QuadraticFieldElement(Fraction(0), Fraction(2), 5)
    assert 2 < sqrt5 < 3
    assert sqrt5 < Fraction(9, 4)  # 5 < 81/16
    assert sqrt5 > Fraction(11, 5)
    assert phi_like > sqrt5  # (3+sqrt5)/2 = 2.618...
    assert sorted([sqrt5, phi_like, QuadraticFieldElement.from_rational(1, 5)])[0] == 1


def test_algebraic_integer_parity_rule():
    assert phi_like.is_algebraic_integer()  # (3+sqrt5)/2: 9-5 = 4
    assert not QuadraticFieldElement(Fraction(1), Fraction(1), 2).is_algebraic_integer()
    assert QuadraticFieldElement(Fraction(2), Fraction(2), 2).is_algebraic_integer()
    assert not QuadraticFieldElement(Fraction(1, 2), Fraction(1), 5).is_algebraic_integer()


def test_total_positivity_needs_both_embeddings():
    sqrt5 = QuadraticFieldElement(Fraction(0), Fraction(2), 5)
    assert sqrt5.sign() > 0
    assert not sqrt5.is_totally_positive()
    assert phi_like.is_totally_positive()
    assert not QuadraticFieldElement(Fraction(0), Fraction(0), 5).is_totally_positive()


@given(small_frac, small_frac)
def test_sqrt_round_trip(a, b):
    x = QuadraticFieldElement(a, b, 5)
    root = x.sqrt()
    if root is not None:
        assert root * root == x
        assert root.sign() >= 0


def test_sqrt_known_values():
    # (15+5*sqrt(5))^2 / 25 = 14+6*sqrt(5) ... pick a clean perfect square
    x = QuadraticFieldElement.parse("3+1r5") * QuadraticFieldElement.parse("3+1r5")
    assert x.sqrt() == QuadraticFieldElement.parse("3+1r5")
    assert QuadraticFieldElement.from_rational(4, 5).sqrt() == 2
    five = QuadraticFieldElement.from_rational(5, 5)
    assert five.sqrt() == QuadraticFieldElement(Fraction(0), Fraction(2), 5)
    assert QuadraticFieldElement.parse("1+1r5").sqrt() is None
    assert QuadraticFieldElement.from_rational(-1, 5).sqrt() is None
