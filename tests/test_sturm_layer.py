"""The integer Sturm layer against the Fraction bisection oracle.

Real-root counts are checked on squarefree integer polynomials of
degree 1 to 4, built as a squarefree base q of degree at most 3 (the
oracle's range) times linear factors whose rational roots are placed on
purpose.  Isolation and refinement take the part of q without rational
roots; rational roots placed at the ends of an interval or at a
bisection midpoint make refinement raise.  Isolation and refinement
are library functions the codegree filters no longer call.  On
irreducible quadratics and cubics with leads up to +-7, they return
exactly the intervals of the oracle's Fraction Sturm bisection.  The
totally-real filter's discriminant rule is checked against the Sturm
count on the squarefree part, repeated and non-real roots included.
The bound filter's Descartes count of the roots above a rational, and
its verdict, are checked against the oracle's roots of real-rooted
quadratics and cubics, with rational, repeated and irrational roots and
bounds placed exactly at roots.
"""
from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fusionarith import exactcore
from fusionarith.codegree_enum import (
    _filter_positive_bounded,
    _filter_totally_real,
    _roots_above,
)
from fusionarith.exactcore import (
    Interval,
    IntPolynomial,
    isolate_real_roots,
    refine_interval,
    sturm_chain,
    sturm_real_root_count,
)
from oracles import (
    _deflate_rational_roots,
    _pdivmod,
    _primitive_int,
    _rational_root_candidates,
    _squarefree,
    bisection_real_root_count,
    isolate_roots_bisection,
    refine_past,
    root_exceeds,
    sign_at,
    sign_bisection,
    sturm_bisection_intervals,
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
# past every root of a squarefree base times (v x - u) for a drawn u/v
FAR = Fraction(100)


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


def _irrational_factor(f: list[Fraction]) -> IntPolynomial:
    """The oracle's factor without rational roots, with integer
    coefficients."""
    return IntPolynomial(tuple(_primitive_int(f)))


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(), st.lists(rationals, max_size=1))
def test_count_and_isolation_match_the_oracle(q, extra):
    assume(all(sign_at(q, r) != 0 for r in extra))
    p = IntPolynomial(tuple(_times_linears(q, extra)))
    rational, irrational, f = _oracle_roots(q, extra)
    assert sturm_real_root_count(p) == len(rational) + len(irrational)
    if len(f) == 1:
        return  # every root of q is rational
    ivs = isolate_real_roots(_irrational_factor(f))
    assert len(ivs) == len(irrational)
    assert all(left.hi <= right.lo for left, right in zip(ivs, ivs[1:]))
    for iv in ivs:
        assert sum(_inside(f, h, iv.lo, iv.hi) for h in irrational) == 1
        assert sign_at(f, iv.lo) * sign_at(f, iv.hi) < 0


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(), rationals, st.integers(1, 80), st.booleans(),
       st.sampled_from(["both", "no lo", "no hi"]))
def test_counts_on_intervals_ending_at_roots(q, r, span, to_root, ends):
    # counts are on (lo, hi]: r becomes a root of p and the lower end,
    # which is left out; the upper end is either the next rational root
    # of q, which is counted, or an arbitrary point.  A missing end is
    # unbounded, and every root of p lies in (-FAR, FAR).
    assume(sign_at(q, r) != 0)
    p = IntPolynomial(tuple(_times_linears(q, [r])))
    rational, irrational, f = _oracle_roots(q, [r])
    above = [x for x in rational if x > r]
    lo = None if ends == "no lo" else r
    hi = None if ends == "no hi" else above[0] if to_root and above else r + Fraction(span, 8)
    left = -FAR if lo is None else lo
    right = FAR if hi is None else hi
    expected = sum(left < x <= right for x in rational)
    expected += sum(_inside(f, h, left, right) for h in irrational)
    assert sturm_real_root_count(p, lo, hi) == expected


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(), st.integers(0, 14))
def test_refinement_keeps_the_oracle_root(q, k):
    _, irrational, f = _oracle_roots(q, [])
    assume(irrational)
    p = _irrational_factor(f)
    for iv in isolate_real_roots(p):
        w = iv.width() / 2 ** k
        out = refine_interval(p, iv, w)
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
    p = IntPolynomial(tuple(p_cs))
    # a root at an end leaves no sign change to bisect on
    if any(sign_at(p_cs, e) == 0 for e in h):
        with pytest.raises(ValueError, match="does not change sign"):
            refine_interval(p, Interval(*h), w)
        return
    # bisecting on the sign of p builds no chain
    with mock.patch.object(exactcore, "sturm_chain", side_effect=AssertionError("chain built")):
        out = refine_interval(p, Interval(*h), w)
    assert out.width() <= w and h[0] <= out.lo and out.hi <= h[1]
    assert _inside(f, h, out.lo, out.hi)


@settings(max_examples=120, deadline=None)
@given(squarefree_bases(max_degree=2), st.integers(0, 40), st.integers(1, 8), st.integers(0, 8))
def test_refinement_lands_on_a_root_at_a_bisection_midpoint(q, whole, den, k):
    # r lies past every root of q; (r - s, r + 3s) holds no other root of
    # q, its first midpoint is r + s and its second is r itself, which
    # raises rather than end an interval at a root
    r = 2 + sum(abs(c) for c in q) + Fraction(whole, den)
    s = Fraction(1, 2 ** k)
    lo, hi = r - s, r + 3 * s
    p = IntPolynomial(tuple(_times_linears(q, [r])))
    with pytest.raises(ValueError, match=f"rational root {r}$"):
        refine_interval(p, Interval(lo, hi), s)
    # wide enough to stop after the first midpoint
    assert refine_interval(p, Interval(lo, hi), 2 * s) == Interval(lo, r + s)


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


@st.composite
def real_rooted_polys(draw) -> tuple[list[int], list[Fraction], list[int], list]:
    """A real-rooted integer polynomial of degree 1 to 3, constant first:
    a base times linear factors whose rational roots may repeat.  The
    base is a constant, an irreducible quadratic with real roots or an
    irreducible cubic.  Returned with the rational roots, the base and
    the oracle's handles of its roots."""
    shape = draw(st.sampled_from(["rational", "quadratic", "cubic"]))
    if shape == "cubic":
        base, handles = draw(irreducible_cubics())
        return base, [], base, handles
    if shape == "quadratic":
        lead, b = draw(st.integers(1, 3)), draw(st.integers(-8, 8))
        c = draw(st.integers(-20, 20))
        assume(b * b - 4 * c > 0 and math.isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c)
        base, free = [lead * c, lead * b, lead], 1
    else:
        base, free = [draw(st.integers(1, 3))], 3
    distinct = draw(st.lists(rationals, min_size=int(shape == "rational"), max_size=free))
    roots = distinct + (draw(st.lists(st.sampled_from(distinct), max_size=free - len(distinct)))
                        if distinct else [])
    return _times_linears(base, roots), sorted(roots), base, isolate_roots_bisection(base)


def _exceeds(base: list[int], handle, bound: Fraction) -> bool:
    """Whether the oracle's root (a Fraction, or an interval isolating a
    root of base) exceeds bound."""
    return root_exceeds(refine_past(base, handle, bound), bound)


def _bound_choices(data, rational: list[Fraction], handles: list) -> Fraction:
    """A drawn rational, or one placed exactly at a rational root or at
    an end of an isolating interval."""
    placed = rational + [end for h in handles if isinstance(h, tuple) for end in h]
    return data.draw(rationals | st.sampled_from(placed) if placed else rationals)


@settings(max_examples=150, deadline=None)
@given(real_rooted_polys(), st.data())
def test_descartes_count_matches_the_oracle_roots(poly, data):
    cs, rational, base, handles = poly
    b = _bound_choices(data, rational, handles)
    expected = sum(r > b for r in rational) + sum(_exceeds(base, h, b) for h in handles)
    assert _roots_above(IntPolynomial(tuple(cs)), b) == expected


@settings(max_examples=150, deadline=None)
@given(real_rooted_polys(), st.data())
def test_bound_filter_fails_where_the_sorted_roots_first_fall_short(poly, data):
    cs, rational, base, handles = poly
    bounds = tuple(_bound_choices(data, rational, handles)
                   for _ in range(data.draw(st.integers(0, 3))))
    # the oracle sorts the roots: intervals refined past every rational
    # root, and a rational root before an interval that starts at it
    refined = []
    for h in handles:
        for r in rational:
            h = refine_past(base, h, r)
        refined.append(h)
    roots = sorted([(r, 0, r) for r in rational] + [(h[0], 1, h) for h in refined])
    d = len(roots)
    padded = sorted(bounds)[:d]
    padded += [Fraction(0)] * (d - len(padded))
    failing = next((b for (_, _, root), b in zip(roots, padded) if not _exceeds(base, root, b)), None)
    result = _filter_positive_bounded(IntPolynomial(tuple(cs)), bounds)
    assert result.passed == (failing is None)
    if failing is not None:
        above = sum(r > failing for r in rational) + sum(_exceeds(base, h, failing) for h in handles)
        assert result.witness == {"bound": str(failing), "roots_above": above}


@st.composite
def irreducible_polys(draw) -> list[int]:
    """An integer quadratic or cubic with no rational root, so
    irreducible, and a lead up to +-7, constant first."""
    deg = draw(st.integers(2, 3))
    cs = draw(st.lists(st.integers(-30, 30), min_size=deg, max_size=deg))
    cs.append(draw(st.sampled_from([c for c in range(-7, 8) if c])))
    assume(cs[0] != 0 and all(sign_at(cs, r) != 0 for r in _rational_root_candidates(cs)))
    return cs


@settings(max_examples=150, deadline=None)
@given(irreducible_polys(), st.integers(0, 6),
       st.fractions(min_value=Fraction(1, 100), max_value=2, max_denominator=100))
@example([1, -7, 0, 3], 3, Fraction(1, 7))  # Cauchy bound 10/3: every end is over 3 * 2^k
@example([5, 0, -6], 0, Fraction(1, 3))     # bound 11/6
def test_isolation_and_refinement_give_the_reference_intervals(cs, k, width):
    p = IntPolynomial(tuple(cs))
    ivs = isolate_real_roots(p)
    assert [(iv.lo, iv.hi) for iv in ivs] == sturm_bisection_intervals(cs)
    for iv in ivs:
        for w in (iv.width() / 4 ** k, width):
            out = refine_interval(p, iv, w)
            assert (out.lo, out.hi) == sign_bisection(cs, iv.lo, iv.hi, w)


@settings(max_examples=60, deadline=None)
@given(irreducible_polys())
def test_a_root_at_a_bisection_midpoint_still_raises(cs):
    # x q(x) has the root 0 and one of q, at least: isolation splits
    # (-B, B) at 0 first
    assume(sturm_bisection_intervals(cs))
    xq = [0, *cs]
    with pytest.raises(ValueError, match="rational root 0$"):
        isolate_real_roots(IntPolynomial(tuple(xq)))
    with pytest.raises(ValueError, match="rational root 0$"):
        sturm_bisection_intervals(xq)
    # every root of q exceeds 1/m in size, m = 1 + max|c_i| / |c_0| over
    # i >= 1, so (-s, 3s) with 3s <= 1/m holds 0 alone; its midpoints
    # are s, then 0
    m = 1 + Fraction(max(abs(c) for c in cs[1:]), abs(cs[0]))
    s = Fraction(1)
    while 3 * s * m > 1:
        s /= 2
    with pytest.raises(ValueError, match="rational root 0$"):
        refine_interval(IntPolynomial(tuple(xq)), Interval(-s, 3 * s), s)
    with pytest.raises(ValueError, match="rational root 0$"):
        sign_bisection(xq, -s, 3 * s, s)


@st.composite
def low_degree_polys(draw) -> list[int]:
    """Degree 1 to 3, constant first: free coefficients; a product of
    linear factors with one repeated (discriminant 0); or a quadratic
    without real roots, times a linear factor or not (discriminant < 0)."""
    lead = draw(st.sampled_from([c for c in range(-5, 6) if c]))
    shape = draw(st.sampled_from(["free", "repeated", "non-real"]))
    roots = draw(st.lists(rationals, min_size=1, max_size=2))
    if shape == "free":
        deg = draw(st.integers(1, 3))
        return draw(st.lists(st.integers(-20, 20), min_size=deg, max_size=deg)) + [lead]
    if shape == "repeated":
        return _times_linears([lead], [roots[0], *roots])
    b = draw(st.integers(-8, 8))
    c = b * b // 4 + draw(st.integers(1, 10))  # b^2 < 4c
    return _times_linears([lead * c, lead * b, lead], roots[1:])


@settings(max_examples=200, deadline=None)
@given(low_degree_polys())
@example([-1, 3, -3, 1])     # (x - 1)^3
@example([4, 0, -3, 1])      # (x + 1)(x - 2)^2
@example([2, 0, 0, 1])       # one real root, two non-real ones
@example([5, 2, 1])          # no real root
@example([-7, 2])
def test_total_reality_is_the_sign_of_the_discriminant(cs):
    p = IntPolynomial(tuple(cs))
    sf = p.squarefree_part()
    count = sturm_real_root_count(sf)
    assert count == bisection_real_root_count(cs)
    real = count == sf.degree
    result = _filter_totally_real(p)
    assert result.passed == real
    assert result.witness == (None if real else
                              {"real_root_count": count, "distinct_root_count": sf.degree})
