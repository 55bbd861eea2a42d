"""Differential checks of exactcore, and of the bound filter's root
count, against sympy, on the inputs each operation supports.  sympy is a test-only dependency; without it this
module is skipped.  The polynomials are built and expanded by sympy, so
the only engine code under test is the operation being compared."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fusionarith.codegree_enum import _roots_above
from fusionarith.exactcore import (
    IntPolynomial,
    factor_over_rationals,
    isolate_real_roots,
    poly_discriminant,
    sturm_real_root_count,
)

sympy = pytest.importorskip("sympy")
x = sympy.Symbol("x")
coeff = st.integers(-30, 30)


@st.composite
def linears_times_a_base(draw) -> "sympy.Poly":
    """Up to four linear factors v x + u times a base of degree at most 3,
    of degree at least 1 in all: the inputs factor_over_rationals takes."""
    linears = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9)), max_size=4))
    low = draw(st.lists(coeff, min_size=0 if linears else 1, max_size=3))
    poly = sympy.Poly([draw(coeff.filter(bool))] + low[::-1], x, domain="ZZ")
    for u, v in linears:
        poly *= sympy.Poly([v, u], x, domain="ZZ")
    return poly


def engine_poly(poly: "sympy.Poly") -> IntPolynomial:
    return IntPolynomial(tuple(int(c) for c in reversed(poly.all_coeffs())))


@given(linears_times_a_base())
def test_factorization_matches_sympy(poly):
    content, pairs = poly.factor_list()
    expected = []
    for f, mult in pairs:
        if f.LC() < 0:
            f, content = -f, -content
        expected += [engine_poly(f)] * mult
    expected.sort(key=lambda f: (f.degree, f.coeffs))
    p = engine_poly(poly)
    assert factor_over_rationals(p) == expected
    assert p.content() == int(content)


@given(st.lists(coeff, min_size=2, max_size=3), coeff.filter(bool))
def test_discriminant_matches_sympy(low, lead):
    poly = sympy.Poly([lead] + low[::-1], x, domain="ZZ")
    assert poly_discriminant(engine_poly(poly)) == int(sympy.discriminant(poly))


@given(linears_times_a_base(), st.data())
def test_real_root_counts_match_sympy(poly, data):
    # the engine counts on (lo, hi] and count_roots on [lo, hi]; a missing
    # end is unbounded, and an end is now and then a rational root
    sf = poly.sqf_part()
    ends = st.none() | st.fractions(-20, 20, max_denominator=6)
    rational_roots = [Fraction(int(r.p), int(r.q)) for r in sympy.roots(sf, filter="Q")]
    if rational_roots:
        ends |= st.sampled_from(rational_roots)
    lo, hi = data.draw(ends), data.draw(ends)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    closed = sf.count_roots(*(None if e is None else sympy.Rational(e.numerator, e.denominator)
                              for e in (lo, hi)))
    at_lo = lo is not None and lo in rational_roots
    assert sturm_real_root_count(engine_poly(sf), lo, hi) == closed - at_lo


@given(coeff.filter(bool), st.lists(coeff, min_size=2, max_size=3))
def test_isolating_intervals_each_hold_one_sympy_root(lead, low):
    poly = sympy.Poly([lead] + low[::-1], x, domain="ZZ")
    assume(poly.is_irreducible)
    ivs = isolate_real_roots(engine_poly(poly))
    assert len(ivs) == poly.count_roots()
    for left, right in zip(ivs, ivs[1:]):
        assert left.hi <= right.lo
    for iv in ivs:
        lo, hi = (sympy.Rational(e.numerator, e.denominator) for e in (iv.lo, iv.hi))
        assert poly.eval(lo) != 0 and poly.eval(hi) != 0
        assert poly.count_roots(lo, hi) == 1


@given(coeff.filter(bool), st.lists(coeff, min_size=2, max_size=3), st.data())
def test_roots_above_a_bound_match_sympy(lead, low, data):
    # Descartes' count is exact only with every root real; real_roots
    # lists each root as often as its multiplicity, and sympy decides
    # each r > b exactly (an irrational root never equals a rational b)
    poly = sympy.Poly([lead] + low[::-1], x, domain="ZZ")
    roots = sympy.real_roots(poly)
    assume(len(roots) == poly.degree())
    rational = [Fraction(int(r.p), int(r.q)) for r in roots if r.is_Rational]
    bound = data.draw(st.fractions(-40, 40, max_denominator=6)
                      | (st.sampled_from(rational) if rational else st.nothing()))
    b = sympy.Rational(bound.numerator, bound.denominator)
    assert _roots_above(engine_poly(poly), bound) == sum(bool(r > b) for r in roots)
