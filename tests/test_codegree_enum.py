"""Candidate enumeration for class-equation orbits and quadratic scans.

The frozen expectations here (certificate counts, failing filters,
witness payloads) are the reference outputs of the bundled cases; the
oracle comparisons live in the acceptance suite.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
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
    ScanSoundnessError,
    admissible_products,
    enumerate_candidates,
    enumerate_dimension_pairs,
    enumerate_quadratic_scan,
    forced_coefficients,
    residual_target,
    run_filter_pipeline,
    _integer_cube_ceiling,
    _real_triple_feasible,
)
from fusionarith.exactcore import IntPolynomial


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
    with pytest.raises(ValueError, match="scan_range"):
        ClassEquationInstance(global_dim=6, fixed_codegrees=(6, 6), orbit_degree=2,
                              scan_range=(5, 4))


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
    assert enumerate_candidates(instance) == []


def test_forced_coefficients():
    assert forced_coefficients(DIM7, 343).forced_next == 196
    assert forced_coefficients(DIM7, 49).forced_next == 28
    assert forced_coefficients(DIM9, 729).forced_next == 405
    assert forced_coefficients(DIM9, 243).forced_next == 135
    assert forced_coefficients(DIM6, 18).forced_next == 12


def test_forced_coefficients_reject_non_integral_products():
    with pytest.raises(ValueError, match="not an integer"):
        forced_coefficients(DIM7, 10)


def test_assembly_shapes():
    assign = forced_coefficients(DIM7, 343)
    assert assign.assemble(leading_sum=28) == P(-343, 196, -28, 1)
    assign2 = forced_coefficients(DIM6, 18)
    assert assign2.assemble() == P(18, -12, 1)
    with pytest.raises(ValueError, match="free coefficient"):
        assign.assemble()
    with pytest.raises(ValueError, match="no free coefficient"):
        assign2.assemble(leading_sum=5)


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
    assert cert.filter_results[-1].witness == {"root": "1", "bound": "7/4"}


def test_pipeline_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        run_filter_pipeline(P(1, 1, 2), DIM7)


def test_pipeline_disabled_filters_are_not_recorded():
    cert = run_filter_pipeline(P(-1, 1), DIM7,
                               disabled_filters=frozenset({FILTER_POSITIVE_BOUNDED}))
    names = [r.name for r in cert.filter_results]
    assert FILTER_POSITIVE_BOUNDED not in names
    assert cert.survived  # nothing else rejects x-1 here


def test_certificate_consistency_guard():
    cert = run_filter_pipeline(P(-1, 1), DIM7)
    with pytest.raises(ValueError, match="contradicts"):
        type(cert)(cert.candidate, cert.filter_results, True)


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
    certs = enumerate_candidates(DIM6)
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
    # the d-number step aims the check at the realness filters directly
    for inst, prod in ((DIM7, 343), (DIM9, 729), (DIM7, 49)):
        assign = forced_coefficients(inst, prod)
        boundary = assign.assemble(leading_sum=assign.forced_next + 1)
        cert = run_filter_pipeline(boundary, inst,
                                   disabled_filters=frozenset({FILTER_D_NUMBER}))
        assert cert.failed_filter in (FILTER_TOTALLY_REAL, FILTER_POSITIVE_BOUNDED)
    assert issubclass(ScanSoundnessError, RuntimeError)


def test_scan_range_override_narrows_the_sweep():
    narrowed = ClassEquationInstance(
        global_dim=7, fixed_codegrees=(7, 7, 7), orbit_degree=3,
        product_divides=343,
        root_lower_bounds=(Fraction(7, 4), Fraction(7, 2), Fraction(7)),
        excluded_quadratic_subfields=((5, 2401),),
        scan_range=(21, 28),
    )
    certs = enumerate_candidates(narrowed)
    assert [str(c.candidate) for c in certs] == [
        "x^3-21x^2+196x-343", "x^3-28x^2+196x-343"]


def _unstepped_certificates(instance, disabled=frozenset()):
    """enumerate_candidates for a cubic orbit written out with every e1
    of the range tested, survivors first."""
    certs = []
    for product in admissible_products(instance):
        assignment = forced_coefficients(instance, product)
        lo, hi = instance.scan_range or (1, assignment.forced_next)
        for e1 in range(lo, hi + 1):
            p = assignment.assemble(e1)
            if FILTER_D_NUMBER not in disabled and not codegree_enum.is_d_number(p).passes:
                continue
            certs.append(run_filter_pipeline(p, instance, disabled))
    return [c for c in certs if c.survived] + [c for c in certs if not c.survived]


@st.composite
def small_cubic_instances(draw, default_range: bool = True):
    n = draw(st.integers(2, 7))
    bounds = draw(st.lists(st.integers(1, 4 * n).map(lambda k: Fraction(k, 4)), max_size=3))
    lo = draw(st.integers(-40, 20))
    ranges = st.just((lo, lo + draw(st.integers(0, 40))))
    return ClassEquationInstance(
        global_dim=n,
        fixed_codegrees=(n,) * draw(st.integers(1, n - 1)),
        orbit_degree=3,
        product_divides=draw(st.sampled_from([n ** 3, 4 * n ** 3, 27 * n])),
        root_lower_bounds=tuple(bounds),
        scan_range=draw(st.none() | ranges if default_range else ranges),
    )


@settings(max_examples=60, deadline=None)
@given(small_cubic_instances())
def test_stepped_scan_gives_the_unstepped_certificates(instance):
    try:
        certs = enumerate_candidates(instance)
    except ScanSoundnessError:
        reject()
    assert certs == _unstepped_certificates(instance)


@settings(max_examples=30, deadline=None)
@given(small_cubic_instances(default_range=False))
def test_without_d_number_every_e1_is_scanned(instance):
    disabled = frozenset({FILTER_D_NUMBER})
    certs = enumerate_candidates(instance, disabled)
    assert certs == _unstepped_certificates(instance, disabled)
    lo, hi = instance.scan_range
    assert len(certs) == len(admissible_products(instance)) * (hi - lo + 1)


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
    # e2 = 1690 and m = 13: the scan tests the 130 multiples of 13 and
    # the pipeline retests each; testing every e1 in 1..e2, as the scan
    # did before it stepped, takes 1690 + 130 calls
    assert stepped == 260
    assert certs == _unstepped_certificates(CUBIC13)
    assert len(tested) - stepped == 1820


# ---------------------------------------------------------------------------
# mutation checks: each filter earns its place


def test_without_subfield_exclusion_dim7_gains_a_survivor():
    certs = enumerate_candidates(DIM7, disabled_filters=frozenset({FILTER_SUBFIELD}))
    assert [str(c.candidate) for c in certs if c.survived] == ["x^3-28x^2+196x-343"]


def test_without_membership_dim9_gains_two_survivors():
    certs = enumerate_candidates(DIM9, disabled_filters=frozenset({FILTER_MEMBERSHIP}))
    assert sorted(str(c.candidate) for c in certs if c.survived) == [
        "x^3-45x^2+405x-729",
        "x^3-54x^2+405x-729",
    ]


def test_without_d_number_dim7_blocks_everything_later():
    certs = enumerate_candidates(DIM7, disabled_filters=frozenset({FILTER_D_NUMBER}))
    # every trace in both scan windows now gets a certificate: 28 + 196
    assert len(certs) == 224
    assert [c for c in certs if c.survived] == []
    by_name = {}
    for c in certs:
        by_name[c.failed_filter] = by_name.get(c.failed_filter, 0) + 1
    assert by_name == {FILTER_TOTALLY_REAL: 218, FILTER_CYCLOTOMIC: 5,
                       FILTER_SUBFIELD: 1}


def test_without_realness_dim7_outcomes_shift_to_the_bound_filter():
    mutated = enumerate_candidates(DIM7,
                                   disabled_filters=frozenset({FILTER_TOTALLY_REAL}))
    mut_counts = {}
    for c in mutated:
        mut_counts[c.failed_filter] = mut_counts.get(c.failed_filter, 0) + 1
    # candidates with complex roots now die on the bound check instead
    assert mut_counts == {FILTER_POSITIVE_BOUNDED: 27, FILTER_SUBFIELD: 1}
    assert [c for c in mutated if c.survived] == []


def test_bound_filter_blocks_an_otherwise_clean_linear_candidate():
    # x-1 passes every other filter of the dim-7 pipeline, so the bound
    # check is the only thing standing between it and survival
    cert = run_filter_pipeline(P(-1, 1), DIM7)
    assert cert.failed_filter == FILTER_POSITIVE_BOUNDED
    relaxed = run_filter_pipeline(
        P(-1, 1), DIM7, disabled_filters=frozenset({FILTER_POSITIVE_BOUNDED}))
    assert relaxed.survived


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
    relaxed = run_filter_pipeline(crafted, inst,
                                  disabled_filters=frozenset({FILTER_CYCLOTOMIC}))
    assert relaxed.survived


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
    certs = enumerate_quadratic_scan(DIM10_SCAN)
    assert len(certs) == 8
    survivors = [str(c.candidate) for c in certs if c.survived]
    assert survivors == ["x^2-30x+100"]
    assert certs[0].survived  # survivors sort first


def test_dim10_scan_cyclotomic_dim_square_witness():
    certs = {str(c.candidate): c for c in enumerate_quadratic_scan(DIM10_SCAN)}
    witness = certs["x^2-15x+25"].filter_results[-1].witness
    assert witness == {"dim_square": "3-1r5", "norm_sqrt": "2",
                       "subfield": 10, "modulus": 100}


def test_scan_is_deterministic():
    assert enumerate_quadratic_scan(DIM10_SCAN) == enumerate_quadratic_scan(DIM10_SCAN)


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
