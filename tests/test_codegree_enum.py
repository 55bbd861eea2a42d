"""Candidate enumeration for class-equation orbits and quadratic scans.

The frozen expectations here (certificate counts, failing filters,
witness payloads) are the reference outputs of the bundled cases; the
oracle comparisons live in the acceptance suite.
"""
from __future__ import annotations

import math
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusionarith import codegree_enum
from fusionarith.codegree_enum import (
    FILTER_CYCLOTOMIC,
    FILTER_D_NUMBER,
    FILTER_DIM_SQUARE,
    FILTER_MEMBERSHIP,
    FILTER_POSITIVE_BOUNDED,
    FILTER_REQUIRED_FIELD,
    FILTER_SUBFIELD,
    FILTER_TOTALLY_REAL,
    ClassEquationInstance,
    DimensionPairInstance,
    InfeasibleInstanceError,
    QuadraticScanInstance,
    admissible_products,
    enumerate_candidates,
    enumerate_dimension_pairs,
    enumerate_quadratic_scan,
    residual_target,
    run_filter_pipeline,
    _integer_cube_ceiling,
    _real_triple_feasible,
)
from fusionarith.algint import is_d_number
from fusionarith.casefile import bundled_case_paths, load_case_file
from fusionarith.exactcore import (
    IntPolynomial,
    UnsupportedDegreeError,
    factor_over_rationals,
    poly_discriminant,
)


def P(*cs: int) -> IntPolynomial:
    return IntPolynomial(tuple(cs))


DIM7 = ClassEquationInstance(
    global_dim=7,
    fixed_codegrees=(7, 7, 7),
    orbit_degree=3,
    product_divides=343,
    root_lower_bounds=(Fraction(7, 4), Fraction(7, 2), Fraction(7)),
    excluded_quadratic_subfields=((5, 2401),),
)

DIM9 = ClassEquationInstance(
    global_dim=9,
    fixed_codegrees=(9, 9, 9, 9),
    orbit_degree=3,
    product_divides=729,
    root_lower_bounds=(Fraction(9, 5), Fraction(18, 5), Fraction(9)),
    product_feasibility="real-roots",
    membership_conductor=9,
)

DIM6 = ClassEquationInstance(
    global_dim=6,
    fixed_codegrees=(6, 6),
    orbit_degree=2,
    product_divides=36,
    root_lower_bounds=(Fraction(1), Fraction(1)),
    product_feasibility="real-roots",
)


# ---------------------------------------------------------------------------
# instance plumbing


def test_residual_targets():
    assert residual_target(DIM7) == Fraction(4, 7)
    assert residual_target(DIM9) == Fraction(5, 9)
    assert residual_target(DIM6) == Fraction(2, 3)


def test_saturated_codegrees_are_infeasible():
    inst = ClassEquationInstance(global_dim=4, fixed_codegrees=(2, 2),
                                 orbit_degree=2)
    with pytest.raises(InfeasibleInstanceError):
        residual_target(inst)


def test_instance_validation():
    with pytest.raises(ValueError, match="positive"):
        ClassEquationInstance(global_dim=0, fixed_codegrees=(2,), orbit_degree=1)
    with pytest.raises(ValueError, match="positive"):
        ClassEquationInstance(global_dim=6, fixed_codegrees=(6, 6), orbit_degree=0)
    with pytest.raises(ValueError, match="feasibility"):
        ClassEquationInstance(global_dim=6, fixed_codegrees=(6, 6), orbit_degree=2,
                              product_feasibility="fuzzy")


def test_orbits_of_degree_four_are_not_enumerated():
    inst = ClassEquationInstance(global_dim=5, fixed_codegrees=(5,), orbit_degree=4)
    with pytest.raises(UnsupportedDegreeError, match="orbit degree 4"):
        enumerate_candidates(inst)


def test_admissible_products():
    assert admissible_products(DIM7) == [49, 343]
    assert admissible_products(DIM9) == [243, 729]
    assert admissible_products(DIM6) == [12, 18, 36]


@pytest.mark.parametrize("bound", [Fraction(9, 4), Fraction(3)])
def test_real_roots_mode_drops_products_whose_cube_root_is_under_the_bound(bound):
    # the admissible P are 3, 9 and 27, with integer cube ceilings 2, 3
    # and 3; a smallest root f1 above the bound would give
    # P = f1*f2*f3 >= f1^3 > P
    instance = ClassEquationInstance(global_dim=3, fixed_codegrees=(3,), orbit_degree=3,
                                     product_divides=27, root_lower_bounds=(bound,),
                                     product_feasibility="real-roots")
    r = residual_target(instance)
    assert not any(_real_triple_feasible(p, r, bound) for p in (3, 9, 27))
    assert admissible_products(instance) == []
    assert list(enumerate_candidates(instance)) == []


def test_forced_coefficients(monkeypatch):
    # every candidate the scan judges has product P and next symmetric
    # function residual * P; a cubic product with P^2 not dividing e^3
    # (49 and 243) has no d-number candidate and is skipped, so only the
    # linear and quadratic candidates run the d-number test
    judged, tested = [], []
    pipeline, real = codegree_enum.run_filter_pipeline, codegree_enum.is_d_number
    monkeypatch.setattr(codegree_enum, "run_filter_pipeline",
                        lambda p, *args, **kw: judged.append(p) or pipeline(p, *args, **kw))
    monkeypatch.setattr(codegree_enum, "is_d_number", lambda p: tested.append(p) or real(p))
    for instance, forced, tests in ((DIM7, {343: 196}, 0),
                                    (DIM9, {729: 405}, 0),
                                    (DIM6, {12: 8, 18: 12, 36: 24}, 3)):
        judged.clear()
        tested.clear()
        enumerate_candidates(instance)
        assert {abs(p.coeffs[0]): abs(p.coeffs[1]) for p in judged} == forced
        assert len(tested) == tests


def test_forced_coefficients_reject_non_integral_products():
    # residual 4/7 makes residual * P an integer only for 7 | P
    inst = ClassEquationInstance(global_dim=7, fixed_codegrees=(7, 7, 7), orbit_degree=3,
                                 product_divides=70)
    assert admissible_products(inst) == [7, 14, 35, 70]


def test_assembly_shapes():
    linear = ClassEquationInstance(global_dim=6, fixed_codegrees=(2, 3), orbit_degree=1)
    assert [c.candidate for c in enumerate_candidates(linear)] == [P(-6, 1)]
    quadratics = sorted(c.candidate.coeffs for c in enumerate_candidates(DIM6))
    assert quadratics == [(12, -8, 1), (18, -12, 1), (36, -24, 1)]
    cubics = [c.candidate for c in enumerate_candidates(DIM7)
              if c.candidate.coeffs[0] == -343 and 20 <= -c.candidate.coeffs[2] <= 28]
    assert sorted(cubics, key=lambda p: p.coeffs[2]) == [P(-343, 196, -28, 1), P(-343, 196, -21, 1)]


# ---------------------------------------------------------------------------
# the filter pipeline on single candidates


def test_pipeline_records_filters_in_order():
    cert = run_filter_pipeline(P(-343, 196, -28, 1), DIM7)
    names = [r.name for r in cert.filter_results]
    assert names == [FILTER_D_NUMBER, FILTER_TOTALLY_REAL,
                     FILTER_POSITIVE_BOUNDED, FILTER_CYCLOTOMIC, FILTER_SUBFIELD]
    assert not cert.survived
    assert cert.failed_filter == FILTER_SUBFIELD


def test_pipeline_subfield_witness_names_the_excluded_field():
    cert = run_filter_pipeline(P(-343, 196, -28, 1), DIM7)
    witness = cert.filter_results[-1].witness
    assert witness == {
        "rational_roots": ["7"],
        "quadratic_factor": [49, -21, 1],
        "field_squarefree_part": 5,
        "excluded_pair": [5, 2401],
    }


def test_pipeline_bound_failure_witness():
    cert = run_filter_pipeline(P(-1, 1), DIM7)
    assert cert.failed_filter == FILTER_POSITIVE_BOUNDED
    assert cert.filter_results[-1].witness == {"bound": "7/4", "roots_above": 0}


def test_bound_filter_on_its_own_rejects_non_real_roots():
    # x^3 - 2 has one real root and a discriminant of -108
    result = codegree_enum._filter_positive_bounded(P(-2, 0, 0, 1), ())
    assert (result.passed, result.witness) == (False, {"reason": "non-real roots"})


def test_pipeline_factors_only_for_the_optional_filters(monkeypatch):
    calls = []
    real = codegree_enum.factor_over_rationals
    monkeypatch.setattr(codegree_enum, "factor_over_rationals", lambda p: calls.append(p) or real(p))
    enumerate_candidates(CUBIC13)
    assert calls == []
    # DIM7 excludes a subfield: each candidate past the cyclotomic filter
    # is factored once
    certs = enumerate_candidates(DIM7)
    assert calls and sorted(calls, key=str) == sorted(
        (c.candidate for c in certs if c.filter_results[-1].name == FILTER_SUBFIELD), key=str)


def test_pipeline_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        run_filter_pipeline(P(1, 1, 2), DIM7)


# ---------------------------------------------------------------------------
# full enumerations, frozen outcomes


def test_dim7_enumeration_has_no_survivors():
    certs = enumerate_candidates(DIM7)
    assert len(certs) == 28
    assert [c for c in certs if c.survived] == []
    by_name = {}
    for c in certs:
        by_name[c.failed_filter] = by_name.get(c.failed_filter, 0) + 1
    assert by_name == {FILTER_TOTALLY_REAL: 27, FILTER_SUBFIELD: 1}


def test_dim7_divisibility_kills_the_smaller_product():
    # the trailing pair (28, 49) is not a d-number tail, so only the
    # product-343 window contributes candidates and traces are multiples
    # of seven
    for cert in enumerate_candidates(DIM7):
        assert cert.candidate.coeffs[0] == -343
        assert cert.candidate.coeffs[1] == 196
        assert cert.candidate.coeffs[2] % 7 == 0


def test_dim7_only_subfield_exclusion_blocks_the_last_candidate():
    certs = enumerate_candidates(DIM7)
    blocked = [c for c in certs if c.failed_filter == FILTER_SUBFIELD]
    assert [str(c.candidate) for c in blocked] == ["x^3-28x^2+196x-343"]


def test_dim9_enumeration_has_no_survivors():
    certs = enumerate_candidates(DIM9)
    assert len(certs) == 45
    assert [c for c in certs if c.survived] == []
    by_name = {}
    for c in certs:
        by_name[c.failed_filter] = by_name.get(c.failed_filter, 0) + 1
    assert by_name == {FILTER_TOTALLY_REAL: 43, FILTER_MEMBERSHIP: 2}
    membership_failures = [c for c in certs if c.failed_filter == FILTER_MEMBERSHIP]
    assert sorted(str(c.candidate) for c in membership_failures) == [
        "x^3-45x^2+405x-729",
        "x^3-54x^2+405x-729",
    ]


def test_dim9_membership_witnesses():
    certs = {str(c.candidate): c for c in enumerate_candidates(DIM9)}
    reducible = certs["x^3-45x^2+405x-729"].filter_results[-1].witness
    assert reducible == {"quadratic_factor": [81, -36, 1],
                         "field_squarefree_part": 3, "conductor": 9}
    irreducible = certs["x^3-54x^2+405x-729"].filter_results[-1].witness
    assert irreducible == {"conductor": 9}


def test_dim6_enumeration_keeps_two_survivors_first():
    certs = list(enumerate_candidates(DIM6))
    assert [str(c.candidate) for c in certs] == [
        "x^2-12x+18", "x^2-24x+36", "x^2-8x+12"]
    assert [c.survived for c in certs] == [True, True, False]
    assert certs[2].failed_filter == FILTER_D_NUMBER


def test_enumeration_is_deterministic():
    assert enumerate_candidates(DIM7) == enumerate_candidates(DIM7)
    assert enumerate_candidates(DIM6) == enumerate_candidates(DIM6)


def test_survivor_sign_pattern_holds():
    for cert in enumerate_candidates(DIM6):
        if cert.survived:
            cs = cert.candidate.coeffs
            n = len(cs) - 1
            for i, c in enumerate(cs):
                assert (-1) ** (n - i) * c > 0


def test_default_scan_stops_at_the_forced_coefficient():
    # a trace just past the default cap cannot carry three real roots
    # above the bounds, so nothing totally positive is cut off; skipping
    # the d-number verdict aims the check at the realness filters directly
    for inst, prod in ((DIM7, 343), (DIM9, 729), (DIM7, 49)):
        e = int(residual_target(inst) * prod)
        boundary = P(-prod, e, -(e + 1), 1)
        assert _failed_without(boundary, inst, FILTER_D_NUMBER) in (
            FILTER_TOTALLY_REAL, FILTER_POSITIVE_BOUNDED)


def test_boundary_reaches_the_bound_filter_only_when_real(monkeypatch):
    seen = []
    bounded = codegree_enum._bound_count

    def spy(p, bounds):
        seen.append(p)
        return bounded(p, bounds)

    monkeypatch.setattr(codegree_enum, "_bound_count", spy)
    # no boundary is ever real, so the bound filter sees only scanned
    # candidates, whose e1 is at most e
    for inst in (DIM7, DIM9):
        enumerate_candidates(inst)
    assert seen and all(-p.coeffs[2] <= p.coeffs[1] for p in seen if p.degree == 3)


def _unstepped_candidates(instance):
    """The cubic candidates of every e1 in the scan range 1..e, d-number
    or not."""
    r = residual_target(instance)
    for product in admissible_products(instance):
        e = int(r * product)
        for e1 in range(1, e + 1):
            yield P(-product, e, -e1, 1)


def _unstepped_certificates(instance):
    """enumerate_candidates for a cubic orbit written out with every e1
    of the range tested, survivors first."""
    certs = [run_filter_pipeline(p, instance) for p in _unstepped_candidates(instance)
             if codegree_enum.is_d_number(p).passes]
    return [c for c in certs if c.survived] + [c for c in certs if not c.survived]


@st.composite
def small_cubic_instances(draw):
    n = draw(st.integers(2, 7))
    bounds = draw(st.lists(st.integers(1, 4 * n).map(lambda k: Fraction(k, 4)), max_size=3))
    return ClassEquationInstance(
        global_dim=n,
        fixed_codegrees=(n,) * draw(st.integers(1, n - 1)),
        orbit_degree=3,
        product_divides=draw(st.sampled_from([n ** 3, 4 * n ** 3, 27 * n])),
        root_lower_bounds=tuple(bounds),
    )


@settings(max_examples=60, deadline=None)
@given(small_cubic_instances())
def test_stepped_scan_gives_the_unstepped_certificates(instance):
    assert list(enumerate_candidates(instance)) == _unstepped_certificates(instance)


@settings(max_examples=60, deadline=None)
@given(small_cubic_instances())
def test_the_boundary_past_the_scan_never_has_three_real_roots(instance):
    # x(x - 1)(x - e) - P with 1 <= e <= P: the local maximum of the
    # product, in (0, 1), is below e/4 < P
    r = residual_target(instance)
    for product in admissible_products(instance):
        e = int(r * product)
        assert 1 <= e <= product
        assert poly_discriminant(P(-product, e, -(e + 1), 1)) < 0


CUBIC13 = ClassEquationInstance(
    global_dim=13, fixed_codegrees=(13, 13, 13), orbit_degree=3,
    product_divides=13 ** 3,
    root_lower_bounds=(Fraction(13, 4), Fraction(13, 2), Fraction(13)),
)


def test_stepped_scan_tests_fewer_d_numbers(monkeypatch):
    tested = []
    real = codegree_enum.is_d_number
    monkeypatch.setattr(codegree_enum, "is_d_number", lambda p: tested.append(p) or real(p))
    certs = enumerate_candidates(CUBIC13)
    stepped = len(tested)
    # e2 = 1690 and m = 13: 2197^2 divides 1690^3, so the 130 multiples
    # of 13 are all d-numbers and none is tested; testing every e1 in
    # 1..e2, as the scan did before it stepped, takes 1690 calls, and
    # the pipeline retests the 130 that pass
    assert len(certs) == 130
    assert stepped == 0
    assert list(certs) == _unstepped_certificates(CUBIC13)
    assert len(tested) - stepped == 1820


SMALL_PRIMES = (2, 3, 5)


def _from_exponents(exponents):
    return math.prod(q ** k for q, k in zip(SMALL_PRIMES, exponents))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=3, max_size=3),
       st.lists(st.integers(0, 5), min_size=3, max_size=3), st.integers(1, 7))
def test_one_test_per_product_decides_every_stepped_e1(p_exponents, e_exponents, cofactor):
    # the cubic scan's rule: for every e1 it steps over, the d-number
    # test of x^3 - e1 x^2 + e x - P passes exactly when P^2 | e^3
    product, e = _from_exponents(p_exponents), cofactor * _from_exponents(e_exponents)
    step = math.prod(q ** -(-k // 3) for q, k in zip(SMALL_PRIMES, p_exponents))
    # the step is the least e1 > 0 with P | e1^3, and its multiples the rest
    assert [x for x in range(1, 2 * step + 1) if x ** 3 % product == 0] == [step, 2 * step]
    for e1 in range(step, 6 * step, step):
        assert is_d_number(P(-product, e, -e1, 1)).passes == (e ** 3 % product ** 2 == 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=3), st.integers(0, 40))
def test_every_stepped_b_of_the_sum_scan_is_a_d_number(exponents, exceeds):
    # a | b^2 holds by the stepping, so every candidate x^2 - b x + a passes
    # the test it no longer runs, and its verdict opens with the shared pass
    scan = enumerate_quadratic_scan(QuadraticScanInstance(
        global_dim=10, product_divides=_from_exponents(exponents), trace_exceeds=exceeds,
        trace_ratio_max=Fraction(2), required_field=5))
    for p in codegree_enum._candidates(scan.family):
        a, b = p.coeffs[0], -p.coeffs[1]
        assert b * b % a == 0 and is_d_number(p).passes
    assert all(cert.verdict[0] is codegree_enum._PASSED[FILTER_D_NUMBER] for cert in scan)


def _scans():
    yield enumerate_candidates(CUBIC13)
    yield enumerate_candidates(DIM6)
    yield enumerate_quadratic_scan(QuadraticScanInstance(10, 2**6 * 5**4, 1, 1, 5))
    yield enumerate_dimension_pairs(DimensionPairInstance(trace=6, constant_range=(1, 40)))


def test_a_scan_stores_one_verdict_per_candidate_and_whole_certificates_for_survivors():
    # the verdict a scan stores for a failure is its failing record; the
    # passes before it are kept once per failing filter, as shared records
    for scan in _scans():
        candidates = list(codegree_enum._candidates(scan.family))
        assert len(scan) == len(scan.failures) == len(candidates) > len(scan.survivors)
        kept = [p for p, f in zip(candidates, scan.failures) if f is None]
        assert [c.candidate for c in scan.survivors] == kept
        failing = {f.name for f in scan.failures if f is not None}
        assert all(not f.passed for f in scan.failures if f is not None)
        assert set(scan.prefixes) == failing
        assert all(r is codegree_enum._PASSED[r.name]
                   for passes in scan.prefixes.values() for r in passes)
        # the family is rows of ranges, so it grows with the products only
        assert all(type(values) in (range, tuple) for _, values, _ in scan.family)


def test_iterating_a_scan_twice_rebuilds_equal_certificates():
    for scan in _scans():
        first, second = list(scan), list(scan)
        assert first == second and len(first) == len(scan)
        survivors = len(scan.survivors)
        assert all(a is b for a, b in zip(first[:survivors], second))
        assert all(a is not b for a, b in zip(first[survivors:], second[survivors:]))
        assert [c.survived for c in first] == [True] * survivors + [False] * (len(first) - survivors)
        # no index rebuilds the whole list: a scan is read by iterating it
        with pytest.raises(TypeError):
            scan[0]


@st.composite
def codegree_scans(draw):
    n = draw(st.integers(2, 9))
    degree = draw(st.integers(1, 3))
    bounds = draw(st.lists(st.integers(1, 3 * n).map(lambda k: Fraction(k, 4)), max_size=degree))
    instance = ClassEquationInstance(
        global_dim=n,
        fixed_codegrees=(n,) * draw(st.integers(1, n - 1)),
        orbit_degree=degree,
        product_divides=draw(st.sampled_from([n ** degree, 4 * n ** degree, 27 * n])),
        root_lower_bounds=tuple(bounds),
        product_feasibility=draw(st.sampled_from(["coarse", "real-roots"])),
        membership_conductor=draw(st.sampled_from([None, 7, 9])),
        # no real quadratic field lies in the ninth cyclotomic field
        excluded_quadratic_subfields=tuple((d, 9) for d in draw(
            st.lists(st.sampled_from([2, 3, 5, 6, 7, 13]), max_size=3, unique=True))),
    )
    return enumerate_candidates, instance, lambda p: run_filter_pipeline(p, instance)


@st.composite
def sum_scans(draw):
    mode = draw(st.sampled_from(["field", "cyclotomic"]))
    instance = QuadraticScanInstance(
        global_dim=draw(st.sampled_from([5, 8, 10, 12])),
        product_divides=draw(st.sampled_from([64, 100, 400, 2000])),
        trace_exceeds=draw(st.integers(0, 12)),
        trace_ratio_max=draw(st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=5)),
        required_field=draw(st.sampled_from([2, 3, 5])),
        dim_square_mode=mode,
        cyclotomic_modulus=draw(st.sampled_from([5, 8, 20, 100])) if mode == "cyclotomic" else None,
    )
    steps = (codegree_enum._filter_d_number, codegree_enum._filter_totally_positive,
             lambda p: codegree_enum._filter_required_field(p, instance.required_field),
             lambda p: codegree_enum._filter_dim_square(p, instance))
    return enumerate_quadratic_scan, instance, lambda p: codegree_enum._run_filters(p, steps)


@st.composite
def dimension_pair_scans(draw):
    lo = draw(st.integers(1, 30))
    instance = DimensionPairInstance(trace=draw(st.integers(1, 12)),
                                     constant_range=(lo, lo + draw(st.integers(0, 40))))
    steps = (codegree_enum._filter_d_number, codegree_enum._filter_totally_real)
    return enumerate_dimension_pairs, instance, lambda p: codegree_enum._run_filters(p, steps)


@settings(max_examples=120, deadline=None)
@given(st.one_of(codegree_scans(), sum_scans(), dimension_pair_scans()))
def test_a_scan_rebuilds_the_certificates_a_fresh_pipeline_gives(drawn):
    # a scan stores failing records and rebuilds each certificate from its
    # family; the rebuilt list is every candidate run afresh through the
    # whole pipeline, the d-number test included, survivors first
    enumerate_scan, instance, judge = drawn
    try:
        scan = enumerate_scan(instance)
    except codegree_enum.UnsupportedSquareClassError:
        assume(False)
    fresh = [judge(p) for p in codegree_enum._candidates(scan.family)]
    rebuilt = list(scan)
    assert rebuilt == [c for c in fresh if c.survived] + [c for c in fresh if not c.survived]
    assert list(pickle.loads(pickle.dumps(scan))) == rebuilt


# ---------------------------------------------------------------------------
# mutation checks: each filter earns its place


def _verdicts(p, instance):
    """Each filter the instance enables, applied to p on its own, in
    pipeline order; the pipeline records these up to the first failure."""
    factors = factor_over_rationals(p)
    verdicts = [codegree_enum._filter_d_number(p), codegree_enum._filter_totally_real(p),
                codegree_enum._filter_positive_bounded(p, instance.root_lower_bounds),
                codegree_enum._filter_cyclotomic(p)]
    if instance.membership_conductor is not None:
        verdicts.append(codegree_enum._filter_membership(factors, instance.membership_conductor))
    if instance.excluded_quadratic_subfields:
        verdicts.append(codegree_enum._filter_subfield_exclusion(
            factors, instance.excluded_quadratic_subfields))
    return verdicts


def _failed_without(p, instance, name):
    """The first filter other than name that rejects p, or None: the
    outcome of the pipeline with that filter taken out."""
    return next((v.name for v in _verdicts(p, instance) if v.name != name and not v.passed), None)


def _class_equation_instances():
    yield DIM7
    yield DIM9
    for path in bundled_case_paths():
        payload = load_case_file(path).payload
        if isinstance(payload.get("instance"), ClassEquationInstance):
            yield payload["instance"]


def test_pipeline_records_the_verdicts_up_to_the_first_failure():
    seen = 0
    for instance in _class_equation_instances():
        for cert in enumerate_candidates(instance):
            verdicts = _verdicts(cert.candidate, instance)
            failed = [i for i, v in enumerate(verdicts) if not v.passed]
            assert cert.filter_results == tuple(verdicts[:failed[0] + 1] if failed else verdicts)
            seen += 1
    # DIM7 and DIM9 give 28 + 45; the bundled dim-6, dim-7 and dim-9 cases 3 + 28 + 45
    assert seen == 149


def test_without_subfield_exclusion_dim7_gains_a_survivor():
    survivors = [str(c.candidate) for c in enumerate_candidates(DIM7)
                 if _failed_without(c.candidate, DIM7, FILTER_SUBFIELD) is None]
    assert survivors == ["x^3-28x^2+196x-343"]


def test_without_membership_dim9_gains_two_survivors():
    survivors = [str(c.candidate) for c in enumerate_candidates(DIM9)
                 if _failed_without(c.candidate, DIM9, FILTER_MEMBERSHIP) is None]
    assert sorted(survivors) == [
        "x^3-45x^2+405x-729",
        "x^3-54x^2+405x-729",
    ]


def test_without_d_number_dim7_blocks_everything_later():
    # every trace in both scan windows now gets a verdict: 28 + 196
    candidates = list(_unstepped_candidates(DIM7))
    assert len(candidates) == 224
    failures = [_failed_without(p, DIM7, FILTER_D_NUMBER) for p in candidates]
    assert Counter(failures) == {FILTER_TOTALLY_REAL: 218, FILTER_CYCLOTOMIC: 5,
                                FILTER_SUBFIELD: 1}


def test_without_realness_dim7_outcomes_shift_to_the_bound_filter():
    failures = [_failed_without(c.candidate, DIM7, FILTER_TOTALLY_REAL)
                for c in enumerate_candidates(DIM7)]
    # candidates with complex roots now die on the bound check instead
    assert Counter(failures) == {FILTER_POSITIVE_BOUNDED: 27, FILTER_SUBFIELD: 1}


def test_bound_filter_blocks_an_otherwise_clean_linear_candidate():
    # x-1 passes every other filter of the dim-7 pipeline, so the bound
    # check is the only thing standing between it and survival
    cert = run_filter_pipeline(P(-1, 1), DIM7)
    assert cert.failed_filter == FILTER_POSITIVE_BOUNDED
    assert _failed_without(P(-1, 1), DIM7, FILTER_POSITIVE_BOUNDED) is None


def test_cyclotomic_filter_blocks_a_crafted_candidate():
    # trailing coefficient 1 sails through the d-number test, three real
    # positive roots clear the bound check, but disc = 229 is not square
    crafted = P(-1, 8, -6, 1)
    inst = ClassEquationInstance(
        global_dim=7, fixed_codegrees=(7, 7, 7), orbit_degree=3,
        root_lower_bounds=(Fraction(1, 10), Fraction(1, 10), Fraction(1, 10)))
    cert = run_filter_pipeline(crafted, inst)
    assert cert.failed_filter == FILTER_CYCLOTOMIC
    assert cert.filter_results[-1].witness == {"discriminant": "229"}
    assert _failed_without(crafted, inst, FILTER_CYCLOTOMIC) is None


# ---------------------------------------------------------------------------
# quadratic codegree scans


DIM8_SCAN = QuadraticScanInstance(
    global_dim=8, product_divides=64, trace_exceeds=8,
    trace_ratio_max=Fraction(1, 2), required_field=2)

DIM10_SCAN = QuadraticScanInstance(
    global_dim=10, product_divides=100, trace_exceeds=10,
    trace_ratio_max=Fraction(3, 5), required_field=5,
    dim_square_mode="cyclotomic", cyclotomic_modulus=100)


def test_quadratic_scan_validation():
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticScanInstance(global_dim=8, product_divides=64, trace_exceeds=8,
                              trace_ratio_max=Fraction(1, 2), required_field=12)
    with pytest.raises(ValueError, match="cyclotomic_modulus"):
        QuadraticScanInstance(global_dim=8, product_divides=64, trace_exceeds=8,
                              trace_ratio_max=Fraction(1, 2), required_field=2,
                              dim_square_mode="cyclotomic")


def test_dim8_scan_rejects_everything():
    certs = enumerate_quadratic_scan(DIM8_SCAN)
    assert len(certs) == 4
    assert [c for c in certs if c.survived] == []
    outcomes = {str(c.candidate): c.failed_filter for c in certs}
    assert outcomes == {
        "x^2-16x+32": FILTER_DIM_SQUARE,
        "x^2-16x+64": FILTER_REQUIRED_FIELD,
        "x^2-24x+64": FILTER_REQUIRED_FIELD,
        "x^2-32x+64": FILTER_REQUIRED_FIELD,
    }


def test_dim8_scan_dim_square_witness():
    certs = {str(c.candidate): c for c in enumerate_quadratic_scan(DIM8_SCAN)}
    witness = certs["x^2-16x+32"].filter_results[-1].witness
    assert witness == {"dim_square": "2-1r2"}


def test_dim10_scan_keeps_exactly_one_survivor():
    certs = list(enumerate_quadratic_scan(DIM10_SCAN))
    assert len(certs) == 8
    survivors = [str(c.candidate) for c in certs if c.survived]
    assert survivors == ["x^2-30x+100"]
    assert certs[0].survived  # survivors sort first


def test_dim10_scan_cyclotomic_dim_square_witness():
    certs = {str(c.candidate): c for c in enumerate_quadratic_scan(DIM10_SCAN)}
    witness = certs["x^2-15x+25"].filter_results[-1].witness
    assert witness == {"dim_square": "3-1r5", "norm_sqrt": "2",
                       "subfield": 10, "modulus": 100}


@pytest.mark.parametrize("candidate,n,passed", [
    (P(100, -30, 1), 5, True),   # disc 500 = 10^2 * 5
    (P(64, -24, 1), 2, False),   # disc 320 = 8^2 * 5, not the field of 2
    (P(64, -26, 1), 5, False),   # disc 420 = 5 * 84, 84 not a square
    (P(64, -16, 1), 2, False),   # disc 0
    (P(5, -1, 1), 5, False),     # disc -19
])
def test_required_field_filter_factors_each_discriminant_at_most_once(
        monkeypatch, candidate, n, passed):
    # n | D and D/n a square decide it, so no discriminant is factored;
    # the filter's failure stores no witness, and the certificate derives it
    calls = []
    real = codegree_enum.squarefree_part
    monkeypatch.setattr(codegree_enum, "squarefree_part", lambda m: calls.append(m) or real(m))
    cert = codegree_enum._run_filters(
        candidate, (lambda p: codegree_enum._filter_required_field(p, n),))
    result = cert.filter_results[-1]
    c, b, _ = candidate.coeffs
    disc = b * b - 4 * c
    assert result.passed is passed
    assert calls == []
    if not passed:
        assert result.witness == {"discriminant": str(disc)}


def test_scan_is_deterministic():
    assert enumerate_quadratic_scan(DIM10_SCAN) == enumerate_quadratic_scan(DIM10_SCAN)


CUBIC13_WIDE = ClassEquationInstance(
    global_dim=13, fixed_codegrees=(13, 13, 13), orbit_degree=3,
    product_divides=4 * 13 ** 3, root_lower_bounds=CUBIC13.root_lower_bounds)


@pytest.mark.parametrize("scan, short, long, count", [
    (enumerate_quadratic_scan, QuadraticScanInstance(10, 2000, 1, 1, 5),
     QuadraticScanInstance(10, 2**6 * 5**4, 1, 1, 5), 813),
    (enumerate_dimension_pairs, DimensionPairInstance(6, (1, 40)),
     DimensionPairInstance(6, (1, 400)), 400),
    (enumerate_candidates, CUBIC13, CUBIC13_WIDE, 520),
], ids=["sum-scan", "dimension-pair", "cubic"])
def test_keyed_failures_do_not_grow_with_the_scan(scan, short, long, count):
    # a failure keyed by its witness is one record per filter and witness,
    # and the candidate's degree and the instance's bounds fix those, so a
    # longer scan of the same pipeline adds none
    scan(short)
    before = dict(codegree_enum._KEYED)
    assert len(scan(long)) == count
    assert codegree_enum._KEYED == before


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 400),
    st.integers(-3, 30),
    st.fractions(min_value=0, max_value=3, max_denominator=6),
    st.sampled_from((2, 3, 5)),
    st.integers(1, 20),
)
def test_scan_candidates_are_exactly_the_divisibility_set(product, exceeds, ratio, field, dim):
    inst = QuadraticScanInstance(global_dim=dim, product_divides=product, trace_exceeds=exceeds,
                                 trace_ratio_max=ratio, required_field=field)
    certs = enumerate_quadratic_scan(inst)
    expected = [
        (a, b)
        for a in range(1, product + 1) if product % a == 0
        for b in range(exceeds + 1, math.floor(ratio * a) + 1) if (b * b) % a == 0
    ]
    got = [(c.candidate.coeffs[0], -c.candidate.coeffs[1]) for c in certs]
    survivors = [ab for ab, c in zip(got, certs) if c.survived]
    rest = [ab for ab, c in zip(got, certs) if not c.survived]
    # survivors first, each part in (a, b) order
    assert got == survivors + rest
    assert survivors == sorted(survivors) and rest == sorted(rest)
    assert sorted(got) == expected


# ---------------------------------------------------------------------------
# exact cube root


def test_integer_cube_ceiling_matches_brute_force():
    c = 0
    for m in range(10 ** 4 + 1):
        while c ** 3 < m:
            c += 1
        assert _integer_cube_ceiling(m) == c


@pytest.mark.parametrize("m, root", [
    (10 ** 400 - 1, None), (10 ** 400, None), (10 ** 400 + 1, None),
    (10 ** 402 - 1, 10 ** 134), (10 ** 402, 10 ** 134), (10 ** 402 + 1, 10 ** 134 + 1),
], ids=["1e400-1", "1e400", "1e400+1", "1e402-1", "1e402", "1e402+1"])
def test_integer_cube_ceiling_is_exact_past_the_float_range(m, root):
    c = _integer_cube_ceiling(m)
    assert (c - 1) ** 3 < m <= c ** 3
    if root is not None:
        assert c == root


def test_integer_cube_ceiling_rejects_negatives():
    with pytest.raises(ValueError, match="m >= 0"):
        _integer_cube_ceiling(-1)


# ---------------------------------------------------------------------------
# dimension pair sweeps


def test_dimension_pair_sweep_keeps_only_the_unit_pair():
    inst = DimensionPairInstance(trace=3, constant_range=(1, 9))
    certs = enumerate_dimension_pairs(inst)
    assert len(certs) == 9
    assert [str(c.candidate) for c in certs if c.survived] == ["x^2-3x+1"]
    failures = {str(c.candidate): c.failed_filter for c in certs if not c.survived}
    assert failures["x^2-3x+3"] == FILTER_TOTALLY_REAL
    assert failures["x^2-3x+9"] == FILTER_TOTALLY_REAL
    assert failures["x^2-3x+2"] == FILTER_D_NUMBER


def test_dimension_pair_validation():
    with pytest.raises(ValueError):
        DimensionPairInstance(trace=0, constant_range=(1, 9))
    with pytest.raises(ValueError):
        DimensionPairInstance(trace=3, constant_range=(0, 9))
    with pytest.raises(ValueError):
        DimensionPairInstance(trace=3, constant_range=(9, 1))
