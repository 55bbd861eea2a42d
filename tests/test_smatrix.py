"""Verification stack for candidate matrices of braiding traces."""
from __future__ import annotations

import json
import re
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionarith.casefile import load_case, run_case
from fusionarith.exactcore import QuadraticFieldElement
from fusionarith.smatrix import (
    CandidateSMatrix,
    DegenerateColumnError,
    check_orthogonality,
    dimension_consistency,
    find_galois_permutation,
    formal_codegrees,
    verlinde_fusion,
)
from oracles import galois_oracle, orthogonality_oracle, verlinde_oracle

# 3x3 matrix over Q(sqrt2) with row norm 4: the sqrt2-dimension object
# sits in the last slot.
ISING_HAT = CandidateSMatrix(
    [[(2, 0), (2, 0), (0, 2)],
     [(2, 0), (2, 0), (0, -2)],
     [(0, 2), (0, -2), (0, 0)]],
    n=2,
    declared_dim=QuadraticFieldElement.parse("4", default_n=2),
    kind="super-modular-hat",
)

# 4x4 matrix over Q(sqrt5) with row norm 5 and a dimension -1 object.
DIM10_HAT = CandidateSMatrix(
    [[(2, 0), (-2, 0), (1, 1), (1, -1)],
     [(-2, 0), (2, 0), (-1, 1), (-1, -1)],
     [(1, 1), (-1, 1), (-2, 0), (-2, 0)],
     [(1, -1), (-1, -1), (-2, 0), (-2, 0)]],
    n=5,
    declared_dim=QuadraticFieldElement.parse("5", default_n=5),
    kind="super-modular-hat",
)

# [[1, phi], [phi, -1]] over Q(sqrt5) with row norm 1 + phi^2 = 2 + phi.
FIB = CandidateSMatrix(
    [[(2, 0), (1, 1)],
     [(1, 1), (-2, 0)]],
    n=5,
    declared_dim=QuadraticFieldElement.parse("5/2+1/2r5"),
)


def test_half_pair_construction_and_dims():
    assert ISING_HAT.size == 3
    assert ISING_HAT.dims == (
        QuadraticFieldElement.parse("1", default_n=2),
        QuadraticFieldElement.parse("1", default_n=2),
        QuadraticFieldElement.parse("1r2", default_n=2),
    )
    assert DIM10_HAT.dims[1] == -1


def test_construction_validation():
    with pytest.raises(ValueError, match="square"):
        CandidateSMatrix([[(2, 0), (2, 0)]], n=2,
                         declared_dim=QuadraticFieldElement.parse("4", default_n=2))
    with pytest.raises(ValueError, match="symmetric"):
        CandidateSMatrix(
            [[(2, 0), (2, 0)], [(0, 2), (2, 0)]], n=2,
            declared_dim=QuadraticFieldElement.parse("4", default_n=2))
    with pytest.raises(ValueError, match="unit diagonal"):
        CandidateSMatrix(
            [[(4, 0), (2, 0)], [(2, 0), (4, 0)]], n=2,
            declared_dim=QuadraticFieldElement.parse("4", default_n=2))
    with pytest.raises(ValueError, match="unit_index"):
        CandidateSMatrix(
            [[(2, 0), (2, 0)], [(2, 0), (2, 0)]], n=2, unit_index=5,
            declared_dim=QuadraticFieldElement.parse("4", default_n=2))
    with pytest.raises(ValueError, match="kind"):
        CandidateSMatrix(
            [[(2, 0), (2, 0)], [(2, 0), (2, 0)]], n=2, kind="mysterious",
            declared_dim=QuadraticFieldElement.parse("4", default_n=2))
    with pytest.raises(TypeError, match="integer half-pairs"):
        CandidateSMatrix(
            [[(2, 0), (Fraction(1, 2), 0)], [(Fraction(1, 2), 0), (2, 0)]], n=2,
            declared_dim=QuadraticFieldElement.parse("4", default_n=2))


def test_orthogonality_passes_on_both_references():
    assert check_orthogonality(ISING_HAT).passes
    assert check_orthogonality(DIM10_HAT).passes


def test_orthogonality_reports_first_violation():
    bad = CandidateSMatrix(
        [[(2, 0), (2, 0), (0, 2)],
         [(2, 0), (2, 0), (0, 2)],
         [(0, 2), (0, 2), (0, 0)]],
        n=2,
        declared_dim=QuadraticFieldElement.parse("4", default_n=2),
        kind="super-modular-hat",
    )
    report = check_orthogonality(bad)
    assert not report.passes
    assert report.violating_pair == (0, 1)


def test_dimension_consistency_on_references():
    assert dimension_consistency(ISING_HAT)
    assert dimension_consistency(DIM10_HAT)


def test_dimension_consistency_fails_on_a_wrong_total():
    for matrix in (ISING_HAT, DIM10_HAT, FIB):
        wrong = CandidateSMatrix(matrix.entries, matrix.n, matrix.declared_dim + 1,
                                 matrix.unit_index, matrix.kind)
        assert not dimension_consistency(wrong)
    assert dimension_consistency(FIB)


def test_formal_codegrees_ising():
    got = [str(f) for f in formal_codegrees(ISING_HAT)]
    assert got == ["2", "4", "4"]


def test_formal_codegrees_dim10():
    got = [str(f) for f in formal_codegrees(DIM10_HAT)]
    assert got == ["15/2-5/2r5", "5", "5", "15/2+5/2r5"]
    lo = QuadraticFieldElement.parse("15/2-5/2r5")
    assert lo.is_algebraic_integer()
    assert lo.is_totally_positive()


def test_codegrees_sum_to_global_dimension_times_rank_share():
    # each codegree is declared_dim / d_X^2, so the unit column gives
    # declared_dim itself and the sum over columns of 1/f equals ... the
    # unit normalization: sum over X of d_X^2 / declared_dim = 1
    for matrix in (ISING_HAT, DIM10_HAT):
        total = sum((d * d for d in matrix.dims),
                    QuadraticFieldElement.from_rational(0, matrix.n))
        assert total == matrix.declared_dim


def test_verlinde_nonnegative_integral_on_references():
    for matrix in (ISING_HAT, DIM10_HAT):
        report = verlinde_fusion(matrix)
        assert report.nonnegative_integral
        assert report.tensor is not None
        assert report.first_violation is None


def test_verlinde_unit_row_is_identity_like():
    tensor = verlinde_fusion(ISING_HAT).tensor
    assert tensor is not None
    for y in range(3):
        for z in range(3):
            assert tensor[0][y][z] == (1 if y == z else 0)


def test_verlinde_flags_non_integral_coefficients():
    # rows (1, sqrt5) and (sqrt5, -1): orthogonal with norm 6, but the
    # coefficient at (1,1,1) comes out 4*sqrt(5)/5
    matrix = CandidateSMatrix(
        [[(2, 0), (0, 2)], [(0, 2), (-2, 0)]],
        n=5,
        declared_dim=QuadraticFieldElement.parse("6", default_n=5),
        kind="modular",
    )
    assert check_orthogonality(matrix).passes
    report = verlinde_fusion(matrix)
    assert not report.nonnegative_integral
    assert report.first_violation == (1, 1, 1)
    assert report.first_value == "4/5r5"
    assert report.tensor is None


@pytest.mark.parametrize("k, value", [(2, "5/4+3/4r5"), (3, "5/3+4/3r5")])
def test_verlinde_flags_an_irrational_non_integral_coefficient(k, value):
    # [[1, k*phi], [k*phi, -1]], a matrix the property below draws:
    # orthogonal with norm 1 + k^2 phi^2
    rows = [[(2, 0), (k, k)], [(k, k), (-2, 0)]]
    declared = 1 + QuadraticFieldElement(k, k, 5) * QuadraticFieldElement(k, k, 5)
    report = verlinde_fusion(CandidateSMatrix(rows, n=5, declared_dim=declared))
    assert (report.first_violation, report.first_value) == ((1, 1, 1), value)
    assert verlinde_oracle(rows, 5, (declared.a, declared.b)) == (None, (1, 1, 1), value)


def test_verlinde_requires_orthogonality():
    bad = CandidateSMatrix(
        [[(2, 0), (2, 0)], [(2, 0), (2, 0)]], n=2,
        declared_dim=QuadraticFieldElement.parse("4", default_n=2))
    with pytest.raises(ValueError, match="orthogonality"):
        verlinde_fusion(bad)


def test_galois_permutation_on_dim10_swaps_both_pairs():
    report = find_galois_permutation(DIM10_HAT)
    assert report.found
    assert report.permutation is not None
    assert report.permutation.mapping == (1, 0, 3, 2)
    assert report.permutation.unit_image == 1
    assert report.permutation.unit_image_dim_square_is_one
    assert report.permutation.n == 5


def test_galois_permutation_on_ising_swaps_the_unit_pair():
    report = find_galois_permutation(ISING_HAT)
    assert report.found
    assert report.permutation is not None
    assert report.permutation.mapping == (1, 0, 2)


def test_galois_permutation_is_an_involution_on_references():
    for matrix in (ISING_HAT, DIM10_HAT, FIB):
        mapping = find_galois_permutation(matrix).permutation.mapping
        for x, image in enumerate(mapping):
            assert mapping[image] == x


def test_galois_search_reports_failure_reason():
    matrix = CandidateSMatrix(
        [[(2, 0), (2, 0)], [(2, 0), (-2, 0)]], n=2,
        declared_dim=QuadraticFieldElement.parse("4", default_n=2))
    report = find_galois_permutation(matrix)
    # ratios here are rational, so conjugation fixes them and the search
    # must still produce a (trivial) answer rather than an error
    assert report.found or report.reason


def test_deterministic_reports():
    first = verlinde_fusion(DIM10_HAT)
    second = verlinde_fusion(DIM10_HAT)
    assert first == second
    assert formal_codegrees(DIM10_HAT) == formal_codegrees(DIM10_HAT)


def test_construction_rejects_mixed_field_generators():
    with pytest.raises(ValueError, match=re.escape("mixed field generators: sqrt(3) vs sqrt(2)")):
        CandidateSMatrix([[(2, 0)]], n=2, declared_dim=QuadraticFieldElement.parse("1r3"))


@pytest.mark.parametrize("declared", [1, Fraction(1), QuadraticFieldElement.from_rational(1, 3)],
                         ids=["int", "Fraction", "rational-in-Q(sqrt3)"])
def test_rational_declared_dim_joins_the_matrix_field(declared):
    matrix = CandidateSMatrix([[(2, 0)]], n=2, declared_dim=declared)
    assert matrix.declared_dim.n == 2 and matrix.declared_dim == 1


def test_float_declared_dim_is_a_type_error():
    with pytest.raises(TypeError):
        CandidateSMatrix([[(2, 0)]], n=2, declared_dim=1.0)


# ---------------------------------------------------------------------------
# Orthogonality and Verlinde against the oracle, on Kronecker products of
# the references above, relabelled, signed and Galois-conjugated.


def _kron(left: list[list], right: list[list]) -> list[list]:
    m = len(right)
    size = len(left) * m
    return [[left[i // m][j // m] * right[i % m][j % m] for j in range(size)]
            for i in range(size)]


def _fib_scaled(k: int) -> tuple[list[list], QuadraticFieldElement]:
    """[[1, t], [t, -1]] with t = k*phi, half-pair (k, k): orthogonal with
    row norm 1 + t^2, integral Verlinde only at k = 1 (the Fibonacci
    matrix)."""
    t = QuadraticFieldElement(k, k, 5)
    one = QuadraticFieldElement.from_rational(1, 5)
    return [[one, t], [t, -one]], one + t * t


@st.composite
def candidate_matrices(draw):
    """Half-pair rows, n, declared half-pair and unit index of a matrix.

    Orthogonal shapes: Kronecker products of ISING_HAT (over Q(sqrt2))
    or of DIM10_HAT and Fibonacci factors (over Q(sqrt5)), up to rank 9.
    A Fibonacci factor may have its off-diagonal entries multiplied by
    k, with declared_dim scaled to the new norm 1 + (k*phi)^2:
    irrational non-integral coefficients.  Every entry stays an integer
    half-pair, as a case file holds it.  Then the
    Galois conjugation, conjugation by a +-1 diagonal fixing the unit
    (negative coefficients), and a relabelling of simple objects.  Some
    matrices are made non-orthogonal by scaling declared_dim alone or by
    shifting one symmetric pair of entries.
    """
    if draw(st.booleans()):
        n = 2
        names = ["ising"] * draw(st.integers(1, 2))
    else:
        n = 5
        names = draw(st.sampled_from([
            ["fib"], ["dim10"], ["fib", "fib"], ["fib", "dim10"], ["dim10", "fib"],
            ["fib", "fib", "fib"]]))
    matrix = [[QuadraticFieldElement.from_rational(1, n)]]
    declared = QuadraticFieldElement.from_rational(1, n)
    for name in names:
        if name == "fib":
            factor, norm = _fib_scaled(draw(st.sampled_from([1, 1, 2, 3])))
        else:
            reference = ISING_HAT if name == "ising" else DIM10_HAT
            factor = [[QuadraticFieldElement(a, b, n) for a, b in row]
                      for row in reference.entries]
            norm = reference.declared_dim
        matrix, declared = _kron(matrix, factor), declared * norm
    size = len(matrix)
    if draw(st.booleans()):
        matrix = [[e.conjugate() for e in row] for row in matrix]
        declared = declared.conjugate()
    signs = [1] + draw(st.lists(st.sampled_from([1, -1]), min_size=size - 1, max_size=size - 1))
    matrix = [[signs[i] * signs[j] * matrix[i][j] for j in range(size)] for i in range(size)]
    order = draw(st.permutations(range(size)))  # order[new] = old index
    matrix = [[matrix[order[i]][order[j]] for j in range(size)] for i in range(size)]
    unit = order.index(0)
    corruption = draw(st.sampled_from(["none", "none", "none", "scale", "shift"]))
    if corruption == "scale":
        declared = declared * draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4), 2]))
    elif corruption == "shift":
        i, j = draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
                    .filter(lambda ij: ij != (unit, unit)))
        delta = QuadraticFieldElement(
            Fraction(draw(st.integers(-2, 2))), Fraction(draw(st.integers(-2, 2))), n)
        matrix[i][j] = matrix[i][j] + delta
        if i != j:
            matrix[j][i] = matrix[j][i] + delta
    assert all(e.a.denominator == e.b.denominator == 1 for row in matrix for e in row)
    rows = [[(e.a.numerator, e.b.numerator) for e in row] for row in matrix]
    return rows, n, (declared.a, declared.b), unit


@settings(max_examples=60, deadline=None)
@given(candidate_matrices())
def test_orthogonality_and_verlinde_match_the_oracle(candidate):
    """And the Galois search matches its oracle on every drawn matrix."""
    rows, n, declared, unit = candidate
    declared_dim = QuadraticFieldElement(declared[0], declared[1], n)
    if (0, 0) in rows[unit]:
        with pytest.raises(DegenerateColumnError):
            CandidateSMatrix(rows, n, declared_dim, unit_index=unit)
        return
    matrix = CandidateSMatrix(rows, n, declared_dim, unit_index=unit)
    galois, expected = find_galois_permutation(matrix), galois_oracle(rows, n, unit)
    assert galois.found == (expected is not None)
    if galois.found:
        permutation = galois.permutation
        assert (permutation.mapping, permutation.unit_image,
                permutation.unit_image_dim_square_is_one) == expected
    orth = check_orthogonality(matrix)
    pair = orthogonality_oracle(rows, n, declared)
    assert orth.passes == (pair is None)
    assert orth.violating_pair == pair
    if pair is not None:
        for held in (None, orth):
            with pytest.raises(ValueError, match=re.escape(f"orthogonality fails at {pair}")):
                verlinde_fusion(matrix, held)
        return
    tensor, first, value = verlinde_oracle(rows, n, declared, unit)
    report = verlinde_fusion(matrix)
    assert report == verlinde_fusion(matrix, orth)
    assert report.first_violation == first
    assert report.first_value == value
    assert report.nonnegative_integral == (first is None)
    if first is None:
        assert report.tensor == tuple(
            tuple(tuple(row) for row in plane) for plane in tensor)


# ---------------------------------------------------------------------------
# Rank 16: the fourth Kronecker power of the Fibonacci matrix, end to end.

# N[a][b][c] of the Fibonacci rules 1 x t = t, t x t = 1 + t
FIB_RULES = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]


def test_fib_fourth_power_through_run_case():
    entries = [[QuadraticFieldElement.from_rational(1, 5)]]
    for _ in range(4):
        entries = _kron(entries, [[QuadraticFieldElement(a, b, 5) for a, b in row]
                                  for row in FIB.entries])
    declared = FIB.declared_dim * FIB.declared_dim * FIB.declared_dim * FIB.declared_dim
    doc = {
        "schema": 1, "name": "fib-kron16", "kind": "smatrix-verify",
        "parameters": {
            "n": 5, "kind": "modular", "declared_dim": str(declared),
            "entries": [[[int(e.a), int(e.b)] for e in row] for row in entries],
        },
    }
    case = load_case(json.dumps(doc))
    start = time.perf_counter()
    report = run_case(case)
    tensor = verlinde_fusion(case.payload["matrix"]).tensor
    elapsed = time.perf_counter() - start

    assert report.error is None
    results = report.results
    assert results["orthogonal"] and results["dimension_consistent"]
    assert results["verlinde_nonnegative_integral"]
    for x, y, z in product(range(16), repeat=3):
        want = 1
        for bit in range(4):
            want *= FIB_RULES[x >> bit & 1][y >> bit & 1][z >> bit & 1]
        assert tensor[x][y][z] == want
    # each factor's conjugation swaps 1 and tau, i.e. flips one index bit
    assert results["galois_permutation"] == [x ^ 15 for x in range(16)]
    assert results["galois_unit_image"] == 15
    assert results["galois_unit_image_dim_square_is_one"] is False
    factor_codegrees = [QuadraticFieldElement.parse("5/2+1/2r5"),
                        QuadraticFieldElement.parse("5/2-1/2r5")]   # 2+phi, 3-phi
    codegrees = []
    for choice in product(factor_codegrees, repeat=4):
        value = QuadraticFieldElement.from_rational(1, 5)
        for f in choice:
            value = value * f
        codegrees.append(value)
    assert results["formal_codegrees"] == [str(f) for f in sorted(codegrees)]
    assert elapsed < 1.0
