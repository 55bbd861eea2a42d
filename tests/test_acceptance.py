"""End-to-end checks, one test per headline claim of the toolkit.

Run with -v to get a pass/fail line for each claim.  Every assertion
here is exact; there are no tolerances anywhere.  The term-count sweep
in test_squared_dimension_56_other_term_counts_are_empty pins every
term count other than 5 and 8: none decomposes 14+5r5 except four
terms, which admit exactly one decomposition.  Four terms means rank 5,
outside the rank window 6..9, so it does not touch the classification
claim (see the comment on the test).
"""
from __future__ import annotations

import io
import random
from fractions import Fraction

from fusionarith.algint import cyclotomic_galois_structure, in_cyclic_cubic_field, is_d_number
from fusionarith.codegree_enum import (
    FILTER_MEMBERSHIP,
    FILTER_SUBFIELD,
    ClassEquationInstance,
    DimensionPairInstance,
    QuadraticScanInstance,
    admissible_products,
    enumerate_candidates,
    enumerate_dimension_pairs,
    enumerate_quadratic_scan,
    residual_target,
)
from fusionarith.casefile import bundled_case_paths, load_case_file, render_reports, run_case
from fusionarith.dimsolve import QuadraticTarget, enumerate_decompositions, fp_square_constraints
from fusionarith.exactcore import (
    IntPolynomial,
    QuadraticFieldElement,
    factor_over_rationals,
    sturm_real_root_count,
)
from fusionarith.smatrix import (
    CandidateSMatrix,
    check_orthogonality,
    dimension_consistency,
    find_galois_permutation,
    verlinde_fusion,
)
from oracles import (
    bisection_real_root_count,
    brute_decompositions,
    brute_force_survivors,
    d_number_oracle,
)

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

DIM10_SCAN = QuadraticScanInstance(
    global_dim=10, product_divides=100, trace_exceeds=10,
    trace_ratio_max=Fraction(3, 5), required_field=5,
    dim_square_mode="cyclotomic", cyclotomic_modulus=100)


def scalar(text: str, n: int) -> QuadraticFieldElement:
    return QuadraticFieldElement.parse(text, default_n=n)


def test_global_dim_7_orbit_is_fully_excluded():
    assert admissible_products(DIM7) == [49, 343]
    certs = enumerate_candidates(DIM7)
    assert [c for c in certs if c.survived] == []
    final = {str(c.candidate): c for c in certs}["x^3-28x^2+196x-343"]
    assert final.failed_filter == FILTER_SUBFIELD
    assert final.filter_results[-1].witness == {
        "rational_roots": ["7"],
        "quadratic_factor": [49, -21, 1],
        "field_squarefree_part": 5,
        "excluded_pair": [5, 2401],
    }


def test_global_dim_9_orbit_fails_conductor_9_membership():
    assert admissible_products(DIM9) == [243, 729]
    assert {residual_target(DIM9) * p for p in (243, 729)} == {135, 405}
    certs = enumerate_candidates(DIM9)
    assert [c for c in certs if c.survived] == []
    reaching = [c for c in certs
                if any(r.name == FILTER_MEMBERSHIP for r in c.filter_results)]
    # two candidates clear d-number, realness, bounds, and the cyclotomic
    # test; only the irreducible one actually defines a cubic orbit
    assert sorted(str(c.candidate) for c in reaching) == [
        "x^3-45x^2+405x-729", "x^3-54x^2+405x-729"]
    irreducible = [c for c in reaching
                   if len(factor_over_rationals(c.candidate)) == 1]
    assert [str(c.candidate) for c in irreducible] == ["x^3-54x^2+405x-729"]
    cert = irreducible[0]
    assert cert.failed_filter == FILTER_MEMBERSHIP
    assert cert.filter_results[-1].witness == {"conductor": 9}
    assert not in_cyclic_cubic_field(IntPolynomial((-729, 405, -54, 1)), 9)


def test_global_dim_6_spherical_branch():
    assert admissible_products(DIM6) == [12, 18, 36]
    survivors = [str(c.candidate) for c in enumerate_candidates(DIM6) if c.survived]
    assert "x^2-12x+18" in survivors
    for root in (scalar("6+3r2", 2), scalar("6-3r2", 2)):
        assert root * root - 12 * root + 18 == 0
    # neither surviving codegree family extends to a dimension
    # decomposition: every sub-target is infeasible at 1..3 terms
    subtargets = [("3+3r2", 2, 1), ("4+3r2", 2, 2), ("5+3r2", 2, 3),
                  ("9+6r3", 3, 1), ("10+6r3", 3, 2), ("11+6r3", 3, 3)]
    for text, n, k in subtargets:
        target = QuadraticTarget(n, scalar(text, n), k)
        assert enumerate_decompositions(target) == []


def test_squared_dimension_56_five_terms_unique():
    target = QuadraticTarget(5, scalar("14+5r5", 5), 5)
    assert fp_square_constraints(target) == (56, 10)
    solutions = enumerate_decompositions(target)
    assert [d.terms for d in solutions] == [((1, 1), (1, 1), (1, 1), (3, 1), (2, 2))]


def test_squared_dimension_56_eight_terms_unique():
    target = QuadraticTarget(5, scalar("14+5r5", 5), 8)
    solutions = enumerate_decompositions(target)
    assert [d.terms for d in solutions] == [((1, 1),) * 7 + ((3, 1),)]


def test_squared_dimension_56_other_term_counts_are_empty():
    # With the unit removed, rank r leaves r-1 squared dimensions, and the
    # rank window 6..9 allows 5 to 8 terms.  Inside the window only 5 and
    # 8 (pinned above) decompose 14+5r5; 6 and 7 have nothing.  Below it,
    # four terms (rank 5, excluded by the rank bound) admit exactly one
    # decomposition: (3+r5)/2 + (3+r5)/2 + (7+3r5)/2 + (15+5r5)/2, the
    # squares of (1+r5)/2, (1+r5)/2, (3+r5)/2 and (5+r5)/2.  Any solution
    # gained or lost at a swept term count fails the equality below.
    target = scalar("14+5r5", 5)
    unexpected = {}
    for k in (1, 2, 3, 4, 6, 7):
        solutions = enumerate_decompositions(QuadraticTarget(5, target, k))
        if solutions:
            unexpected[k] = [d.terms for d in solutions]
    four_terms = ((1, 1), (1, 1), (3, 1), (5, 1))
    assert unexpected == {4: [four_terms]}, f"term counts with solutions: {unexpected}"

    # re-expand the four-term answer without the solver: each part is the
    # square of (alpha + beta*r5)/2, totally positive, and they sum to target
    total = scalar("0", 5)
    for alpha, beta in four_terms:
        root = QuadraticFieldElement(alpha, beta, 5)
        square = root * root
        assert square > 0 and square.conjugate() > 0
        total = total + square
    assert total == target
    assert brute_decompositions(5, 56, 10, 4) == {four_terms}


def test_trace_three_pair_scan_keeps_only_unit_constant():
    certs = enumerate_dimension_pairs(DimensionPairInstance(trace=3, constant_range=(1, 9)))
    passing = {c.candidate.coeffs[0] for c in certs if c.survived}
    assert passing == {1}
    assert [str(c.candidate) for c in certs if c.survived] == ["x^2-3x+1"]


RANK3_HAT = CandidateSMatrix(
    [[(2, 0), (2, 0), (0, 2)],
     [(2, 0), (2, 0), (0, -2)],
     [(0, 2), (0, -2), (0, 0)]],
    n=2,
    declared_dim=QuadraticFieldElement.parse("4", default_n=2),
    kind="super-modular-hat",
)

RANK4_HAT = CandidateSMatrix(
    [[(2, 0), (-2, 0), (1, 1), (1, -1)],
     [(-2, 0), (2, 0), (-1, 1), (-1, -1)],
     [(1, 1), (-1, 1), (-2, 0), (-2, 0)],
     [(1, -1), (-1, -1), (-2, 0), (-2, 0)]],
    n=5,
    declared_dim=QuadraticFieldElement.parse("5", default_n=5),
    kind="super-modular-hat",
)


def test_rank_3_braiding_trace_matrix_verifies():
    assert check_orthogonality(RANK3_HAT).passes
    assert dimension_consistency(RANK3_HAT)
    assert verlinde_fusion(RANK3_HAT).nonnegative_integral


def test_rank_4_braiding_trace_matrix_verifies_with_conjugation_swap():
    assert check_orthogonality(RANK4_HAT).passes
    assert dimension_consistency(RANK4_HAT)
    assert verlinde_fusion(RANK4_HAT).nonnegative_integral
    galois = find_galois_permutation(RANK4_HAT)
    assert galois.found
    # the conjugation swaps the first two slots and the last two slots
    assert galois.mapping == (1, 0, 3, 2)


def test_global_dim_10_quadratic_scan_pins_the_unique_field():
    certs = enumerate_quadratic_scan(DIM10_SCAN)
    assert [str(c.candidate) for c in certs if c.survived] == ["x^2-30x+100"]
    larger = scalar("15+5r5", 5)
    assert larger * larger - 30 * larger + 100 == 0
    assert larger > scalar("15-5r5", 5)


def test_cyclotomic_galois_structures():
    assert cyclotomic_galois_structure(100) == (2, 4, 5)
    assert cyclotomic_galois_structure(49) == (2, 3, 7)


def test_sturm_counts_match_bisection_oracle_on_1000_cubics():
    rng = random.Random(90121)
    for _ in range(1000):
        cs = [rng.randint(-30, 30) for _ in range(3)] + [rng.randint(1, 30)]
        p = IntPolynomial(tuple(cs))
        assert sturm_real_root_count(p) == bisection_real_root_count(cs), str(p)


def test_enumeration_matches_brute_force_oracle():
    def survivor_coeffs(instance):
        return frozenset(c.candidate.coeffs
                         for c in enumerate_candidates(instance) if c.survived)

    oracle6 = brute_force_survivors((6, 6), 2, 36, (Fraction(1), Fraction(1)),
                                    distinct_real_required=True)
    assert oracle6 == survivor_coeffs(DIM6) == frozenset({(18, -12, 1), (36, -24, 1)})
    oracle7 = brute_force_survivors(
        (7, 7, 7), 3, 343, (Fraction(7, 4), Fraction(7, 2), Fraction(7)),
        excluded_quadratic_subfields=((5, 2401),))
    assert oracle7 == survivor_coeffs(DIM7) == frozenset()
    oracle9 = brute_force_survivors(
        (9, 9, 9, 9), 3, 729, (Fraction(9, 5), Fraction(18, 5), Fraction(9)),
        membership_conductor=9, distinct_real_required=True)
    assert oracle9 == survivor_coeffs(DIM9) == frozenset()


def test_d_number_agrees_with_definitional_oracle_on_all_small_quadratics():
    for b in range(-30, 31):
        for c in range(-30, 31):
            p = IntPolynomial((c, b, 1))
            assert is_d_number(p).passes == d_number_oracle((c, b, 1)), str(p)


def test_full_case_suite_renders_are_byte_identical():
    def render_once():
        reports = [run_case(load_case_file(p)) for p in bundled_case_paths()]
        text_out, json_out = io.StringIO(), io.StringIO()
        render_reports(reports, "text", text_out)
        render_reports(reports, "json", json_out)
        return text_out.getvalue().encode(), json_out.getvalue().encode()

    first_text, first_json = render_once()
    second_text, second_json = render_once()
    assert first_text == second_text
    assert first_json == second_json
