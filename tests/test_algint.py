"""Number-theoretic predicates: d-numbers, abelian splitting fields,
cubic field membership, quadratic subfields, cyclotomic Galois structure."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusionarith.algint import (
    cyclotomic_galois_structure,
    in_cyclic_cubic_field,
    is_d_number,
    passes_cyclotomic_test,
    quadratic_subfield_in_cyclotomic,
)
from fusionarith.exactcore import IntPolynomial, UnsupportedDegreeError
from oracles import (
    _CUBIC_FIELD_GENERATORS,
    _char_poly_3x3,
    cyclic_cubic_member_oracle,
    d_number_oracle,
    totient_oracle,
)


def P(*cs: int) -> IntPolynomial:
    return IntPolynomial(tuple(cs))


# ---------------------------------------------------------------------------
# d-number divisibility test


def test_d_number_monic_with_unit_constant_always_passes():
    assert is_d_number(P(1, -3, 1)).passes


def test_d_number_selects_divisors_of_nine():
    passing = [m for m in range(1, 10) if is_d_number(P(m, -3, 1)).passes]
    assert passing == [1, 3, 9]


def test_d_number_linear_integers_pass():
    for k in (-12, -1, 0, 1, 7, 343):
        assert is_d_number(P(-k, 1)).passes


def test_d_number_zero_constant_needs_zero_intermediates():
    assert not is_d_number(P(0, -3, 1)).passes
    assert is_d_number(P(0, 0, 1)).passes


def test_d_number_failing_index_points_at_the_bad_coefficient():
    verdict = is_d_number(P(2, -3, 1))  # 2 does not divide 9
    assert not verdict.passes
    assert verdict.failing_index == 1
    assert is_d_number(P(9, -3, 1)).failing_index is None


def test_d_number_requires_monic():
    with pytest.raises(ValueError):
        is_d_number(P(1, 1, 2))


@given(st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12))
def test_d_number_matches_definitional_oracle_on_cubics(c0, c1, c2):
    cs = (c0, c1, c2, 1)
    assert is_d_number(IntPolynomial(cs)).passes == d_number_oracle(cs)


# ---------------------------------------------------------------------------
# abelian splitting fields (degree <= 3)


def test_cyclotomic_quadratics_and_reducible_cubics_pass():
    assert passes_cyclotomic_test(P(1, -3, 1))
    assert passes_cyclotomic_test(P(-5, 0, 1))
    assert passes_cyclotomic_test(P(-343, 196, -28, 1))  # reducible cubic


def test_cyclotomic_irreducible_cubics_need_square_discriminant():
    assert passes_cyclotomic_test(P(1, -3, 0, 1))        # disc 81
    assert not passes_cyclotomic_test(P(-1, -1, 0, 1))   # disc -23
    assert not passes_cyclotomic_test(P(-2, 0, 0, 1))    # disc -108
    assert passes_cyclotomic_test(P(-729, 405, -54, 1))  # disc 5103^2


def test_cyclotomic_degree_cap():
    with pytest.raises(UnsupportedDegreeError):
        passes_cyclotomic_test(P(1, 0, 0, 0, 1))


def test_cyclotomic_is_shift_invariant_on_seeded_cubics():
    rng = random.Random(8191)
    for _ in range(200):
        p = IntPolynomial((rng.randint(-20, 20), rng.randint(-20, 20),
                           rng.randint(-20, 20), 1))
        shift = rng.randint(-5, 5)
        assert passes_cyclotomic_test(p) == passes_cyclotomic_test(p.evaluate(P(shift, 1))), str(p)


# ---------------------------------------------------------------------------
# cyclic cubic field membership


def test_membership_standard_generators():
    assert in_cyclic_cubic_field(P(1, -3, 0, 1), 9)
    assert in_cyclic_cubic_field(P(-1, -2, 1, 1), 7)


def test_membership_rejects_the_conductor63_cubic():
    # disc = 5103^2 = 81 * 567^2 looks compatible with conductor 9, yet the
    # roots generate the wrong field; only the exact ring search settles it
    assert not in_cyclic_cubic_field(P(-729, 405, -54, 1), 9)


def test_membership_shifted_generator_still_inside():
    assert in_cyclic_cubic_field(P(1, -3, 0, 1).evaluate(P(-4, 1)), 9)
    assert in_cyclic_cubic_field(P(1, -3, 0, 1).evaluate(P(17, 1)), 9)


def test_membership_rejects_non_square_discriminant():
    assert not in_cyclic_cubic_field(P(-2, 0, 0, 1), 9)
    assert not in_cyclic_cubic_field(P(-1, -1, 0, 1), 7)


def test_membership_errors():
    with pytest.raises(ValueError, match="conductor"):
        in_cyclic_cubic_field(P(1, -3, 0, 1), 11)
    with pytest.raises(ValueError, match="irreducible cubic"):
        in_cyclic_cubic_field(P(-6, 11, -6, 1), 9)  # (x-1)(x-2)(x-3)
    with pytest.raises(ValueError, match="irreducible cubic"):
        in_cyclic_cubic_field(P(1, -3, 1), 9)


def test_membership_implies_abelian_splitting():
    rng = random.Random(271828)
    for _ in range(150):
        p = IntPolynomial((rng.randint(-30, 30), rng.randint(-12, 12),
                           rng.randint(-12, 12), 1))
        for conductor in (7, 9):
            try:
                member = in_cyclic_cubic_field(p, conductor)
            except ValueError:
                continue
            if member:
                assert passes_cyclotomic_test(p)


def test_membership_agrees_with_lattice_oracle():
    rng = random.Random(5557)
    polys = [P(1, -3, 0, 1), P(-1, -2, 1, 1), P(-729, 405, -54, 1)]
    for _ in range(60):
        polys.append(IntPolynomial((rng.randint(-20, 20), rng.randint(-10, 10),
                                    rng.randint(-10, 10), 1)))
    for p in polys:
        for conductor in (7, 9):
            try:
                got = in_cyclic_cubic_field(p, conductor)
            except ValueError:
                continue
            assert got == cyclic_cubic_member_oracle(p.coeffs, conductor), (str(p), conductor)


def element_char_poly(u: int, v: int, w: int, conductor: int) -> IntPolynomial:
    """Characteristic polynomial of u + v t + w t^2, t the generator of the
    field of the conductor, from its multiplication matrix."""
    g0, g1, g2, _ = _CUBIC_FIELD_GENERATORS[conductor]
    mt = [[0, 0, -g0], [1, 0, -g1], [0, 1, -g2]]
    mt2 = [[sum(mt[i][k] * mt[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    m = [[u * (i == j) + v * mt[i][j] + w * mt2[i][j] for j in range(3)] for i in range(3)]
    tr, sec, det = _char_poly_3x3(m)
    return P(-det, sec, -tr, 1)


def _scaled(q: IntPolynomial, a: int) -> IntPolynomial:
    """q(a x): not monic, and its roots are those of q divided by a."""
    return P(*(c * a ** k for k, c in enumerate(q.coeffs)))


small = st.integers(min_value=-6, max_value=6)


# random cubics are almost never members, so draw field elements instead
@settings(deadline=None)
@given(small, small, small, st.sampled_from([7, 9]), st.integers(min_value=2, max_value=8))
def test_membership_finds_every_element_of_the_field(u, v, w, conductor, a):
    assume((v, w) != (0, 0))
    q = element_char_poly(u, v, w, conductor)
    other = 16 - conductor
    assert in_cyclic_cubic_field(q, conductor)
    assert cyclic_cubic_member_oracle(q.coeffs, conductor)
    assert not in_cyclic_cubic_field(q, other)
    assert not cyclic_cubic_member_oracle(q.coeffs, other)
    assert in_cyclic_cubic_field(_scaled(q, a), conductor)


@pytest.mark.parametrize("a", [1, 2, 3, 5, 8])
def test_membership_of_scaled_cubics(a):
    # the search runs on the monic polynomial of a^3 * root, whose roots are
    # a^2 times those of q, so its trace-form box grows with a
    q9 = P(1944, 648, 54, 1)
    assert q9 == element_char_poly(-6, 6, -6, 9)
    assert in_cyclic_cubic_field(_scaled(q9, a), 9)
    assert not in_cyclic_cubic_field(_scaled(q9, a), 7)
    q7 = P(-1, -2, 1, 1)
    assert in_cyclic_cubic_field(_scaled(q7, a), 7)
    assert not in_cyclic_cubic_field(_scaled(q7, a), 9)
    # disc 229 is not a square: the field is not Galois, so in neither
    for conductor in (7, 9):
        assert not in_cyclic_cubic_field(_scaled(P(1, -4, 0, 1), a), conductor)


# ---------------------------------------------------------------------------
# quadratic subfields of cyclotomic fields


def test_subfield_knowns():
    for power in (7, 49, 343, 2401):
        assert not quadratic_subfield_in_cyclotomic(5, power)
    assert quadratic_subfield_in_cyclotomic(2, 128)
    assert quadratic_subfield_in_cyclotomic(5, 100)
    assert quadratic_subfield_in_cyclotomic(-7, 7)


def test_subfield_rejects_non_squarefree():
    with pytest.raises(ValueError):
        quadratic_subfield_in_cyclotomic(8, 100)
    with pytest.raises(ValueError):
        quadratic_subfield_in_cyclotomic(1, 100)


@given(st.sampled_from([-7, -3, -2, -1, 2, 3, 5, 6, 7, 10]),
       st.integers(3, 60), st.integers(1, 5))
def test_subfield_containment_is_monotone_under_multiples(d, modulus, k):
    if quadratic_subfield_in_cyclotomic(d, modulus):
        assert quadratic_subfield_in_cyclotomic(d, modulus * k)


# ---------------------------------------------------------------------------
# Galois structure of cyclotomic fields


def test_galois_structures_match_quoted_decompositions():
    assert cyclotomic_galois_structure(100) == (2, 4, 5)
    assert cyclotomic_galois_structure(49) == (2, 3, 7)
    assert cyclotomic_galois_structure(128) == (2, 32)
    assert cyclotomic_galois_structure(4) == (2,)


@given(st.integers(3, 300))
def test_galois_group_order_is_the_totient(n):
    orders = cyclotomic_galois_structure(n)
    assert math.prod(orders) == totient_oracle(n)
    assert orders == tuple(sorted(orders))


def test_galois_structure_is_a_frozen_value():
    s = cyclotomic_galois_structure(49)
    assert type(s) is tuple and s == (2, 3, 7) and hash(s) == hash((2, 3, 7))
    with pytest.raises(TypeError):
        s[0] = 1
