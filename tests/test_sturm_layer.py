"""The integer Sturm layer against the Fraction bisection oracle.

Real-root counts, isolation and refinement are checked on squarefree
integer polynomials of degree 1 to 4, built as a squarefree base q of
degree at most 3 (the oracle's range) times linear factors whose
rational roots are placed on purpose: at the ends of isolating
intervals and at bisection midpoints.  Roots of irreducible cubics,
which the codegree filters compare by one sign evaluation, are checked
against the oracle's bisection at points inside, at and outside their
isolating intervals.
"""
from __future__ import annotations

from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusionarith import exactcore
from fusionarith.codegree_enum import _CubicRoot, _handle_cmp, _handle_str, _real_root_handles
from fusionarith.exactcore import (
    Interval,
    IntPolynomial,
    factor_over_rationals,
    isolate_real_roots,
    refine_interval,
    sturm_chain,
    sturm_real_root_count,
)
from oracles import (
    _deflate_rational_roots,
    _pdivmod,
    _squarefree,
    isolate_roots_bisection,
    refine_past,
    root_exceeds,
    sign_at,
    sturm_sequence_oracle,
)


def _times_linears(cs: list[int], roots) -> list[int]:
    """cs times (v x - u) for each root u/v."""
    for r in roots:
        u, v = r.numerator, r.denominator
        out = [0] * (len(cs) + 1)
        for k, c in enumerate(cs):
            out[k] -= u * c
            out[k + 1] += v * c
        cs = out
    return cs


@st.composite
def squarefree_bases(draw, max_degree: int = 3) -> list[int]:
    """A squarefree integer polynomial of degree 1..max_degree, constant
    first."""
    deg = draw(st.integers(1, max_degree))
    cs = draw(st.lists(st.integers(-12, 12), min_size=deg, max_size=deg))
    cs.append(draw(st.sampled_from([c for c in range(-6, 7) if c])))
    assume(len(_squarefree([Fraction(c) for c in cs])) == len(cs))
    return cs


def test_the_oracles_find_the_roots_beside_zero():
    # x^2 + 8x: the candidates come from 8, not from the constant term 0
    assert isolate_roots_bisection([0, 8, 1]) == [-8, 0]
    assert _deflate_rational_roots([0, 0, 8, 1]) == ([-8, 0, 0], [1])


rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))


def _oracle_roots(q: list[int], extra) -> tuple[list[Fraction], list, list[Fraction]]:
    """Roots of q times (x - r) for r in extra, none a root of q: the
    rational ones ascending, oracle handles of the irrational roots of q
    that straddle none of them, and the factor of q those handles
    isolate, which is q with its rational roots divided out."""
    handles = isolate_roots_bisection(q)
    irrational_part = [Fraction(c) for c in q]
    for h in handles:
        if isinstance(h, Fraction):
            irrational_part = _pdivmod(irrational_part, [-h, Fraction(1)])[0]
    rational = sorted([h for h in handles if isinstance(h, Fraction)] + list(extra))
    irrational = []
    for h in handles:
        if isinstance(h, tuple):
            for r in extra:
                h = refine_past(irrational_part, h, r)
            irrational.append(h)
    return rational, irrational, irrational_part


def _inside(f: list[Fraction], h, lo: Fraction, hi: Fraction) -> bool:
    """Whether the root of f in handle h lies in (lo, hi); f has no
    rational root and no other root in h."""
    h = refine_past(f, refine_past(f, h, lo), hi)
    return root_exceeds(h, lo) and not root_exceeds(h, hi)


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(), st.lists(rationals, max_size=1))
def test_count_and_isolation_match_the_oracle(q, extra):
    assume(all(sign_at(q, r) != 0 for r in extra))
    p = IntPolynomial(tuple(_times_linears(q, extra)))
    rational, irrational, f = _oracle_roots(q, extra)
    assert sturm_real_root_count(p) == len(rational) + len(irrational)
    ivs = isolate_real_roots(p)
    assert [iv.lo for iv in ivs if iv.is_point] == rational
    opens = [iv for iv in ivs if not iv.is_point]
    assert len(opens) == len(irrational)
    for iv in opens:
        assert sum(_inside(f, h, iv.lo, iv.hi) for h in irrational) == 1
        assert not any(iv.lo < r < iv.hi for r in rational)


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(), rationals, st.integers(1, 80), st.booleans(),
       st.booleans(), st.booleans())
def test_counts_on_intervals_ending_at_roots(q, r, span, to_root, lo_open, hi_open):
    # r becomes a root of p and the lower end; the upper end is either
    # the next rational root of q or an arbitrary point
    assume(sign_at(q, r) != 0)
    p = IntPolynomial(tuple(_times_linears(q, [r])))
    rational, irrational, f = _oracle_roots(q, [r])
    above = [x for x in rational if x > r]
    hi = above[0] if to_root and above else r + Fraction(span, 8)
    iv = Interval(r, hi, lo_open=lo_open, hi_open=hi_open)
    expected = sum(iv.contains(x) for x in rational)
    expected += sum(_inside(f, h, r, hi) for h in irrational)
    assert sturm_real_root_count(p, iv) == expected


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(), st.lists(rationals, max_size=1), st.integers(0, 14))
def test_refinement_keeps_the_oracle_root(q, extra, k):
    assume(all(sign_at(q, r) != 0 for r in extra))
    p = IntPolynomial(tuple(_times_linears(q, extra)))
    _, irrational, f = _oracle_roots(q, extra)
    for iv in isolate_real_roots(p):
        if iv.is_point:
            continue
        w = iv.width() / 2 ** k
        out = refine_interval(p, iv, w)
        assert not out.is_point
        assert out.width() <= w and iv.lo <= out.lo and out.hi <= iv.hi
        assert sum(_inside(f, h, out.lo, out.hi) for h in irrational) == 1


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(), st.sampled_from(["none", "lo", "hi", "both"]), st.integers(0, 14))
def test_refinement_with_roots_at_the_endpoints(q, ends, k):
    _, irrational, f = _oracle_roots(q, [])
    assume(irrational)
    h = irrational[0]
    placed = [e for e, name in zip(h, ("lo", "hi")) if ends in (name, "both")]
    p_cs = _times_linears(q, [e for e in placed if sign_at(q, e) != 0])
    assume(len(p_cs) <= 5)
    w = (h[1] - h[0]) / 2 ** k
    # no chain is built, with or without a root at an endpoint: there
    # the sign of p' stands in for it
    with mock.patch.object(exactcore, "sturm_chain", side_effect=AssertionError("chain built")):
        out = refine_interval(IntPolynomial(tuple(p_cs)), Interval.open(*h), w)
    assert not out.is_point
    assert out.width() <= w and h[0] <= out.lo and out.hi <= h[1]
    assert _inside(f, h, out.lo, out.hi)


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(max_degree=2), st.integers(0, 40), st.integers(1, 8),
       st.integers(0, 8), st.booleans())
def test_refinement_lands_on_a_root_at_a_bisection_midpoint(q, whole, den, k, root_at_lo):
    # r lies past every root of q; (r - s, r + 3s) holds no other root of
    # q, its first midpoint is r + s and its second is r itself
    r = 2 + sum(abs(c) for c in q) + Fraction(whole, den)
    s = Fraction(1, 2 ** k)
    lo, hi = r - s, r + 3 * s
    p = IntPolynomial(tuple(_times_linears(q, [r, lo] if root_at_lo else [r])))
    assert refine_interval(p, Interval.open(lo, hi), s) == Interval.point(r)
    # wide enough to stop after the first midpoint
    assert refine_interval(p, Interval.open(lo, hi), 2 * s) == Interval.open(lo, r + s)


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(), st.lists(rationals, max_size=1), st.lists(rationals, min_size=1, max_size=6))
def test_integer_chain_signs_match_the_fraction_sequence(q, extra, xs):
    assume(all(sign_at(q, r) != 0 for r in extra))
    cs = _times_linears(q, extra)
    chain = sturm_chain(IntPolynomial(tuple(cs)))
    sequence = sturm_sequence_oracle(cs)
    assert all(type(c) is int for member in chain for c in member)
    assert [len(m) for m in chain] == [len(m) for m in sequence]
    # the leading signs give the signs at infinity
    assert [(m[-1] > 0) for m in chain] == [(m[-1] > 0) for m in sequence]
    for x in xs:
        assert [sign_at(m, x) for m in chain] == [sign_at(m, x) for m in sequence]


@st.composite
def irreducible_cubics(draw) -> tuple[list[int], list]:
    """k (x - a)(x - b)(x - c) + e with the roots a < b < c at least 2
    apart and |e| <= 2 < 3k, so |k (x - a)(x - b)(x - c)| >= 3k midway
    between neighbouring roots keeps three real roots; draws with a
    rational root are rejected.  Returned with the oracle's handles."""
    a = draw(st.integers(-6, 2))
    b = a + draw(st.integers(2, 4))
    c = b + draw(st.integers(2, 4))
    k = draw(st.integers(1, 2))
    e = draw(st.sampled_from([-2, -1, 1, 2]))
    cs = [k * -a * b * c + e, k * (a * b + a * c + b * c), k * -(a + b + c), k]
    oracle = isolate_roots_bisection(cs)
    assume(all(isinstance(h, tuple) for h in oracle))
    return cs, oracle


fractions_0_to_1 = st.fractions(min_value=0, max_value=1, max_denominator=16)


@settings(max_examples=60, deadline=None)
@given(irreducible_cubics(), fractions_0_to_1, st.fractions(min_value=0, max_value=3, max_denominator=8),
       st.integers(1, 20))
def test_cubic_roots_compare_with_rationals_as_the_oracle_orders_them(cubic, t, gap, k):
    cs, oracle = cubic
    f = IntPolynomial(tuple(cs))
    ivs = isolate_real_roots(f)
    roots = [_CubicRoot(f, iv) for iv in ivs]
    assert len(ivs) == len(oracle) == 3
    for root, iv, h in zip(roots, ivs, oracle):
        assert _inside(cs, h, iv.lo, iv.hi)
        near = refine_interval(f, iv, iv.width() / 2 ** k)
        points = [iv.lo, iv.hi, iv.lo - gap, iv.hi + gap, iv.lo + t * iv.width(), near.lo, near.hi]
        for x in points:
            want = 1 if root_exceeds(refine_past(cs, h, x), x) else -1
            assert _handle_cmp(root, x) == want
            assert _handle_cmp(x, root) == -want
        # the witness text: halvings in pairs down to width 1/1024
        shrunk = iv
        while shrunk.width() > Fraction(1, 1024):
            shrunk = refine_interval(f, shrunk, shrunk.width() / 4)
        assert _handle_str(root) == f"({shrunk.lo}, {shrunk.hi})"
    assert [[_handle_cmp(x, y) for y in roots] for x in roots] == [
        [(i > j) - (i < j) for j in range(3)] for i in range(3)]


@settings(max_examples=60, deadline=None)
@given(irreducible_cubics(), st.integers(0, 2), fractions_0_to_1)
def test_a_linear_times_cubic_quartic_sorts_as_the_oracle_orders_it(cubic, which, t):
    # the rational root lies inside, or at an end of, an isolating
    # interval of the cubic factor, where only the sign test decides
    cs, oracle = cubic
    iv = isolate_real_roots(IntPolynomial(tuple(cs)))[which]
    r = iv.lo + t * iv.width()
    handles = _real_root_handles(factor_over_rationals(IntPolynomial(tuple(_times_linears(cs, [r])))))
    below = sum(not root_exceeds(refine_past(cs, h, r), r) for h in oracle)
    assert handles[below] == r
    cubic_roots = handles[:below] + handles[below + 1:]
    assert all(isinstance(root, _CubicRoot) for root in cubic_roots)
    assert all(_inside(cs, h, root.interval.lo, root.interval.hi)
               for root, h in zip(cubic_roots, oracle))
