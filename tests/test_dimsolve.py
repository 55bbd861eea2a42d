"""Exhaustive decomposition searches for squared-dimension targets."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionarith import dimsolve
from fusionarith.dimsolve import (
    Decomposition,
    InfeasibleTargetError,
    QuadraticTarget,
    algebraic_integer_check,
    enumerate_decompositions,
    enumerate_integer_square_decompositions,
    fp_square_constraints,
)
from fusionarith.exactcore import QuadraticFieldElement, squarefree_part
from oracles import brute_decompositions, brute_square_summands


def target(text: str, n: int) -> QuadraticFieldElement:
    return QuadraticFieldElement.parse(text, default_n=n)


def test_algebraic_integer_parity():
    assert algebraic_integer_check(1, 1, 5)   # (1+sqrt5)/2
    assert not algebraic_integer_check(1, 2, 5)
    assert algebraic_integer_check(2, 2, 2)
    assert not algebraic_integer_check(1, 1, 2)
    with pytest.raises(ValueError):
        algebraic_integer_check(1, 1, 12)


def test_instance_validation():
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticTarget(4, target("1+1r2", 2), 1)
    with pytest.raises(ValueError, match="different quadratic field"):
        QuadraticTarget(5, target("1+1r2", 2), 1)
    with pytest.raises(ValueError, match="rank_terms"):
        QuadraticTarget(5, target("14+5r5", 5), 0)


def test_constraint_pair_doubles_the_parts():
    inst = QuadraticTarget(5, target("14+5r5", 5), 5)
    assert fp_square_constraints(inst) == (56, 10)


def test_constraint_pair_rejects_non_integral_targets():
    with pytest.raises(InfeasibleTargetError):
        fp_square_constraints(QuadraticTarget(5, target("1/3+1r5", 5), 2))


def test_decomposition_terms_stay_sorted():
    d = Decomposition(((5, 1), (1, 1), (2, 2)))
    assert d.terms == ((1, 1), (5, 1), (2, 2))


def test_decomposition_value_expands_each_term():
    d = Decomposition(((1, 1), (3, 1)))
    # ((1+sqrt5)/2)^2 + ((3+sqrt5)/2)^2 = (1+5+2sqrt5 + 9+5+6sqrt5)/4 = 5+2sqrt5
    assert d.value(5) == target("5+2r5", 5)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 6, 7, 13]),
       st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), min_size=1, max_size=8))
@example(2, [(1, 2)])
@example(13, [(1, 1), (2, 1)])
def test_decomposition_value_matches_a_fraction_re_expansion(n, terms):
    # ((alpha + beta*sqrt(n))/2)^2 = (alpha^2 + n*beta^2)/4 + (alpha*beta/2)*sqrt(n),
    # summed term by term; an odd sum of alpha^2 + n*beta^2 gives a quarter
    rational = sum(Fraction(a * a + n * b * b, 4) for a, b in terms)
    root = sum(Fraction(a * b, 2) for a, b in terms)
    value = Decomposition(tuple(terms)).value(n)
    assert (value.a / 2, value.b / 2, value.n) == (rational, root, n)


def test_changing_one_term_of_a_solution_breaks_its_value():
    goal = target("56+20r5", 5)
    sols = enumerate_decompositions(QuadraticTarget(5, goal, 5))
    assert len(sols) == 14
    for dec in sols:
        assert dec.value(5) == goal
        for i, (alpha, beta) in enumerate(dec.terms):
            for changed in ((alpha + 1, beta), (alpha, beta + 1)):
                terms = dec.terms[:i] + (changed,) + dec.terms[i + 1:]
                assert Decomposition(terms).value(5) != goal


def test_five_term_solution_is_unique():
    inst = QuadraticTarget(5, target("14+5r5", 5), 5)
    sols = enumerate_decompositions(inst)
    assert [d.terms for d in sols] == [((1, 1), (1, 1), (1, 1), (3, 1), (2, 2))]


def test_eight_term_solution_is_the_near_unit_family():
    inst = QuadraticTarget(5, target("14+5r5", 5), 8)
    sols = enumerate_decompositions(inst)
    assert [d.terms for d in sols] == [tuple([(1, 1)] * 7 + [(3, 1)])]


def test_four_terms_admit_a_genuine_solution():
    # 1+5 + 1+5 + 9+5 + 25+5 = 56 and 1+1+3+5 = 10, every pair integral
    inst = QuadraticTarget(5, target("14+5r5", 5), 4)
    sols = enumerate_decompositions(inst)
    assert [d.terms for d in sols] == [((1, 1), (1, 1), (3, 1), (5, 1))]


def test_remaining_term_counts_are_empty():
    for k in (1, 2, 3, 6, 7):
        inst = QuadraticTarget(5, target("14+5r5", 5), k)
        assert enumerate_decompositions(inst) == []


@pytest.mark.parametrize("text,n,k", [
    ("3+3r2", 2, 1), ("4+3r2", 2, 2), ("5+3r2", 2, 3),
    ("9+6r3", 3, 1), ("10+6r3", 3, 2), ("11+6r3", 3, 3),
])
def test_spherical_subtargets_have_no_decompositions(text, n, k):
    assert enumerate_decompositions(QuadraticTarget(n, target(text, n), k)) == []


def test_negative_conjugate_target_short_circuits():
    # 1+2*sqrt5 is positive but its conjugate is negative: no sum of
    # squares can reach it, whatever the term count
    inst = QuadraticTarget(5, target("1+2r5", 5), 3)
    assert enumerate_decompositions(inst) == []


@pytest.mark.parametrize("k", range(1, 9))
def test_search_agrees_with_combination_oracle(k):
    inst = QuadraticTarget(5, target("14+5r5", 5), k)
    got = {d.terms for d in enumerate_decompositions(inst)}
    assert got == brute_decompositions(5, 56, 10, k)


@pytest.mark.parametrize("k", range(5, 9))
@pytest.mark.parametrize("text,a_total,b_total", [("56+20r5", 224, 40), ("84+30r5", 336, 60)])
def test_scaled_targets_agree_with_combination_oracle(text, a_total, b_total, k):
    # (14+5r5)*4 and *6, as searched by the quadratic-search benchmark
    inst = QuadraticTarget(5, target(text, 5), k)
    assert fp_square_constraints(inst) == (a_total, b_total)
    got = [d.terms for d in enumerate_decompositions(inst)]
    assert got == sorted(brute_decompositions(5, a_total, b_total, k))


def test_two_terms_may_repeat_a_pair():
    # 15+5r5 = 2*((5+r5)/2)^2 = ((1+r5)/2)^2 + ((3+3r5)/2)^2: the two-term
    # table holds both the index pair (i, i) and a pair i < j for it
    inst = QuadraticTarget(5, target("15+5r5", 5), 2)
    got = [d.terms for d in enumerate_decompositions(inst)]
    assert got == [((1, 1), (3, 3)), ((5, 1), (5, 1))]
    assert set(got) == brute_decompositions(5, 60, 10, 2)


@given(st.integers(1, 4), st.integers(1, 30), st.integers(0, 12))
def test_every_reported_decomposition_reproduces_its_target(k, a4, b2):
    # targets are (a4 + b2*sqrt5)/2 scaled into the field convention
    t = QuadraticFieldElement(Fraction(2 * a4), Fraction(2 * b2), 5)
    inst = QuadraticTarget(5, t, k)
    for dec in enumerate_decompositions(inst):
        assert dec.value(5) == t
        assert len(dec.terms) == k
        assert all(alpha >= 1 and beta >= 1 for alpha, beta in dec.terms)


def test_results_are_sorted_and_duplicate_free():
    inst = QuadraticTarget(5, target("28+10r5", 5), 5)
    sols = enumerate_decompositions(inst)
    assert sols == sorted(sols, key=lambda d: d.terms)
    assert len({d.terms for d in sols}) == len(sols)


def _pairs(top: int, count: int):
    return st.lists(st.tuples(st.integers(1, top), st.integers(1, top)), min_size=1, max_size=count)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 6, 7, 13)),
    # up to 4 pairs from 1..6 at k <= 4, or up to 6 pairs from 1..3 at
    # k <= 6: six (6, 6) pairs at k = 6, doubled as below, keep the oracle
    # busy for minutes
    st.one_of(st.tuples(_pairs(6, 4), st.integers(1, 4)),
              st.tuples(_pairs(3, 6), st.integers(1, 6))),
)
def test_search_matches_the_combination_oracle_on_random_targets(n, terms_and_k):
    # the target is a sum of squares of random algebraic integers,
    # searched at a random term count, so both hits and empty results come
    # up; the two-term table is read at the top (k = 2), one level down
    # (k = 3) and deeper
    terms, k = terms_and_k
    # (alpha + beta*sqrt(n))/2 is integral when alpha = beta mod 2 for
    # n = 1 mod 4, and when both are even otherwise; raw pairs would give
    # a nonempty result in only about 7% of draws
    if n % 4 == 1:
        terms = [(alpha + (alpha - beta) % 2, beta) for alpha, beta in terms]
    else:
        terms = [(2 * alpha, 2 * beta) for alpha, beta in terms]
    a_total = sum(alpha * alpha + n * beta * beta for alpha, beta in terms)
    b_total = sum(alpha * beta for alpha, beta in terms)
    inst = QuadraticTarget(n, Decomposition(tuple(terms)).value(n), k)
    got = [d.terms for d in enumerate_decompositions(inst)]
    assert got == sorted(brute_decompositions(n, a_total, b_total, k))


def test_search_does_not_repeat_the_squarefree_check(monkeypatch):
    calls = []

    def counting_squarefree_part(m):
        calls.append(m)
        return squarefree_part(m)

    monkeypatch.setattr(dimsolve, "squarefree_part", counting_squarefree_part)
    for text, k in (("14+5r5", 5), ("56+20r5", 8)):
        calls.clear()
        sols = enumerate_decompositions(QuadraticTarget(5, target(text, 5), k))
        assert sols
        # one check when the instance is built, none inside the search
        assert calls == [5]


# ---------------------------------------------------------------------------
# integer square decompositions


def test_square_summand_knowns():
    assert enumerate_integer_square_decompositions(4, 2, 4) == [(1, 2)]
    assert enumerate_integer_square_decompositions(4, 3, 4) == [(1, 1, 1)]
    assert enumerate_integer_square_decompositions(3, 1, 4) == [(2,)]
    assert enumerate_integer_square_decompositions(3, 1, 2) == [(2,)]


def test_square_summand_empty_when_divisors_cannot_reach():
    assert enumerate_integer_square_decompositions(3, 1, 3) == []  # 2 is not a divisor of 3


@given(st.integers(2, 40), st.integers(1, 5), st.integers(1, 12))
def test_square_summands_match_brute_force(total, k, bound):
    if total < k:
        return
    got = set(enumerate_integer_square_decompositions(total, k, bound))
    assert got == brute_square_summands(total, k, bound)


def test_square_summand_validation():
    with pytest.raises(ValueError):
        enumerate_integer_square_decompositions(2, 3, 4)
    with pytest.raises(ValueError):
        enumerate_integer_square_decompositions(4, 2, 0)


def test_huge_divisor_bound_runs_to_the_oracle_answer(tmp_path):
    case = tmp_path / "huge-bound.case.json"
    case.write_text(json.dumps({
        "schema": 1, "name": "huge-bound", "kind": "integer-decomposition",
        "parameters": {"total": 10, "term_counts": [2], "divisor_bound": 10**9},
    }), encoding="utf-8")
    # a child process, so that a divisor list built by testing every d up
    # to the bound fails here on the timeout instead of hanging the suite
    done = subprocess.run(
        [sys.executable, "-m", "fusionarith.casefile", "run", str(case), "--format", "json"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    solutions = json.loads(done.stdout)["reports"][0]["results"]["solutions"]["2"]
    # a term is at most total - 1 = 9, and the divisors of 10**9 = 2**9 * 5**9
    # up to 9 are those of 40, so the oracle can enumerate divisors of 40
    assert [tuple(s) for s in solutions] == sorted(brute_square_summands(10, 2, 40))
