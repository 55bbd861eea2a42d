"""Verification of candidate S-matrices over a real quadratic field.

A candidate matrix is given exactly, as a case file holds it: every
entry is (a + b*sqrt(n))/2 for an integer half-pair (a, b) over one
shared squarefree n.  With s_II = 1 every entry is an algebraic
integer, so integer half-pairs express them all.  The checks are the
ones that certify (or refute) modular / super-modular data at small
rank:

* row orthogonality against the declared global dimension,
* non-negative integrality of the Verlinde coefficients,
* formal codegrees read off the unit row,
* total squared dimension against the declared dimension,
* existence of the permutation realizing sqrt(n) -> -sqrt(n) on
  character ratios.

Orthogonality, dimension consistency, Verlinde and the Galois search
read the integer grid directly: every inner product, Verlinde sum or
cross-multiplied ratio is accumulated as a pair of Python ints.  The
Verlinde coefficients are symmetric in X, Y, Z, so only X <= Y <= Z is
computed.  Field elements are built only for the declared dimension,
the per-column weights 1/(declared_dim * d_W), the formal codegrees,
dims and the text of a failing value.

Each report keeps its witness once and derives its flag from it:
passes from the violating pair, nonnegative_integral from the tensor,
found from the mapping.

Everything is verification of supplied data; nothing here solves for
unknown entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ._record import record
from .exactcore import QuadraticFieldElement


class DegenerateColumnError(ValueError):
    """A dimension entry is zero, so no column ratio is defined."""


@record
class CandidateSMatrix:
    """Symmetric square matrix of integer half-pairs with a declared total.

    entries[x][y] = (a, b) stands for s_XY = (a + b*sqrt(n))/2.  kind is
    "modular" for a full S-matrix (declared_dim = dim C) or
    "super-modular-hat" for the hat block (declared_dim = dim C / 2).
    The unit row lists the dimensions d_X: d_I = 1 and no d_X is zero.
    A rational declared_dim joins the field Q(sqrt(n)).
    """

    entries: tuple[tuple[tuple[int, int], ...], ...]
    n: int
    declared_dim: QuadraticFieldElement
    unit_index: int = 0
    kind: str = "modular"

    def __post_init__(self) -> None:
        entries = tuple(tuple((a, b) for a, b in row) for row in self.entries)
        declared = QuadraticFieldElement(0, 0, self.n) + self.declared_dim
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "declared_dim", declared)
        size = len(entries)
        if size == 0 or any(len(row) != size for row in entries):
            raise ValueError("entries must form a nonempty square matrix")
        if any(type(v) is not int for row in entries for pair in row for v in pair):
            raise TypeError("entries must be integer half-pairs")
        if not 0 <= self.unit_index < size:
            raise ValueError("unit_index out of range")
        if self.kind not in ("modular", "super-modular-hat"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not declared.is_rational and declared.n != self.n:
            raise ValueError(f"mixed field generators: sqrt({declared.n}) vs sqrt({self.n})")
        for i in range(size):
            for j in range(i + 1, size):
                if entries[i][j] != entries[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i}, {j})")
        unit_row = entries[self.unit_index]
        if unit_row[self.unit_index] != (2, 0):
            raise ValueError("unit diagonal entry must be 1")
        for w, pair in enumerate(unit_row):
            if pair == (0, 0):
                raise DegenerateColumnError(f"dimension column {w} is zero")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def dims(self) -> tuple[QuadraticFieldElement, ...]:
        return tuple(QuadraticFieldElement(a, b, self.n) for a, b in self.entries[self.unit_index])


@record
class OrthogonalityReport:
    """violating_pair is the first (i, j) that fails, i == j marking a
    norm failure; passes, when there is none, means all distinct rows
    are orthogonal and every row has squared norm declared_dim."""

    violating_pair: Optional[tuple[int, int]] = None

    @property
    def passes(self) -> bool:
        return self.violating_pair is None


def _inner(u: tuple[tuple[int, int], ...], v: tuple[tuple[int, int], ...],
           n: int) -> tuple[int, int]:
    """(A, B) with sum_k u_k v_k = (A + B*sqrt(n))/4."""
    a = b = 0
    for (p, q), (r, s) in zip(u, v):
        a += p * r + n * q * s
        b += p * s + q * r
    return a, b


def _squared_norm(matrix: CandidateSMatrix) -> tuple[Fraction, Fraction]:
    """The declared total (a + b*sqrt(n))/2 on _inner's denominator."""
    return 2 * matrix.declared_dim.a, 2 * matrix.declared_dim.b


def check_orthogonality(matrix: CandidateSMatrix) -> OrthogonalityReport:
    n, rows = matrix.n, matrix.entries
    norm = _squared_norm(matrix)
    for i, row_i in enumerate(rows):
        for j in range(i, matrix.size):
            if _inner(row_i, rows[j], n) != (norm if i == j else (0, 0)):
                return OrthogonalityReport((i, j))
    return OrthogonalityReport()


@record
class VerlindeReport:
    """Integrality verdict for the (naive) Verlinde coefficients.

    tensor, indexed tensor[X][Y][Z], is present exactly when every
    coefficient is a non-negative integer; otherwise first_violation
    holds the offending (X, Y, Z) and first_value its exact value as
    text.
    """

    tensor: Optional[tuple[tuple[tuple[int, ...], ...], ...]] = None
    first_violation: Optional[tuple[int, int, int]] = None
    first_value: Optional[str] = None

    @property
    def nonnegative_integral(self) -> bool:
        return self.tensor is not None


def verlinde_fusion(
    matrix: CandidateSMatrix, orthogonality: Optional[OrthogonalityReport] = None
) -> VerlindeReport:
    """Coefficients sum_W s_XW s_YW s_ZW / (declared_dim * d_W), exact.

    Entries are real, so the conjugation on the Z slot is the identity.
    For a super-modular hat block this is the naive fusion count with
    the halved dimension as normalizer.  orthogonality is the report of
    check_orthogonality(matrix) when the caller already holds it; the
    check runs here otherwise, and a failing report raises ValueError.

    The value is symmetric in X, Y, Z, so only X <= Y <= Z is computed,
    in lexicographic order.  The first failing triple of the full
    (X, Y >= X, Z) order is sorted (its sorted permutation has the same
    value and comes no later), so it is also the first one found here.
    """
    if orthogonality is None:
        orthogonality = check_orthogonality(matrix)
    if not orthogonality.passes:
        raise ValueError(f"orthogonality fails at {orthogonality.violating_pair}")
    n, size, rows = matrix.n, matrix.size, matrix.entries
    # c_W = 1/(declared_dim * d_W) = (P + Q*sqrt(n))/(2M), M the lcm of
    # every half-coordinate denominator
    fields = [1 / (matrix.declared_dim * d) for d in matrix.dims]
    scale = math.lcm(*(c.a.denominator for c in fields), *(c.b.denominator for c in fields))
    weights = [(c.a.numerator * (scale // c.a.denominator),
                c.b.numerator * (scale // c.b.denominator)) for c in fields]
    # each term s_XW s_YW c_W s_ZW is three half-pairs and a weight
    denominator = 16 * scale
    cube: list[list[list[int]]] = [[[0] * size for _ in range(size)] for _ in range(size)]
    for x in range(size):
        for y in range(x, size):
            hoisted = []
            for (p, q), (r, s), (u, v) in zip(rows[x], rows[y], weights):
                e, f = p * r + n * q * s, p * s + q * r
                hoisted.append((e * u + n * f * v, e * v + f * u))
            for z in range(y, size):
                a = b = 0
                for (e, f), (p, q) in zip(hoisted, rows[z]):
                    a += e * p + n * f * q
                    b += e * q + f * p
                if b or a < 0 or a % denominator:
                    value = QuadraticFieldElement(
                        Fraction(2 * a, denominator), Fraction(2 * b, denominator), n)
                    return VerlindeReport(None, (x, y, z), str(value))
                c = a // denominator
                cube[x][y][z] = cube[x][z][y] = cube[y][x][z] = c
                cube[y][z][x] = cube[z][x][y] = cube[z][y][x] = c
    return VerlindeReport(tuple(tuple(tuple(row) for row in plane) for plane in cube))


def formal_codegrees(matrix: CandidateSMatrix) -> list[QuadraticFieldElement]:
    """The multiset {declared_dim / d_X^2 : X}, ascending."""
    return sorted(matrix.declared_dim / (d * d) for d in matrix.dims)


def dimension_consistency(matrix: CandidateSMatrix) -> bool:
    """Whether the squared dimensions sum to the declared total."""
    dims = matrix.entries[matrix.unit_index]
    return _inner(dims, dims, matrix.n) == _squared_norm(matrix)


@record
class GaloisSearchReport:
    """Row/column permutation realizing sqrt(n) -> -sqrt(n) on ratios.

    mapping[y] is the column whose ratio vector equals the conjugated
    ratio vector of column y.  unit_image records where the unit goes;
    unit_image_dim_square_is_one whether its dimension squares to 1.
    When no permutation exists, those three are None and reason says why.
    """

    mapping: Optional[tuple[int, ...]] = None
    unit_image: Optional[int] = None
    unit_image_dim_square_is_one: Optional[bool] = None
    reason: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.mapping is not None


def find_galois_permutation(matrix: CandidateSMatrix) -> GaloisSearchReport:
    """Search for the permutation matching conjugated character ratios.

    Column y maps to the unique column y' with
    conj(s_XY / d_Y) = s_XY' / d_Y' for every X; the report says so
    when no column or more than one column matches.  No dimension is
    zero, so the test is conj(s_XY) d_Y' = s_XY' conj(d_Y), on ints.
    The matrix is symmetric, so column y is row y.
    """
    n, size, unit, rows = matrix.n, matrix.size, matrix.unit_index, matrix.entries
    mapping = []
    for y, column in enumerate(rows):
        e, f = column[unit]
        matches = []
        for image, other in enumerate(rows):
            u, v = other[unit]
            # 4 conj(s_XY) d_Y' and 4 s_XY' conj(d_Y), coordinate by coordinate
            if all(p * u - n * q * v == r * e - n * s * f and p * v - q * u == s * e - r * f
                   for (p, q), (r, s) in zip(column, other)):
                matches.append(image)
        if not matches:
            return GaloisSearchReport(reason=f"no column matches conjugated ratios of column {y}")
        if len(matches) > 1:
            return GaloisSearchReport(reason=f"columns {matches} all match conjugated ratios of column {y}")
        mapping.append(matches[0])
    if sorted(mapping) != list(range(size)):
        return GaloisSearchReport(reason=f"mapping {mapping} is not a permutation")
    unit_image = mapping[unit]
    # d^2 = 1 exactly when d = +-1, the half-pairs (+-2, 0)
    return GaloisSearchReport(tuple(mapping), unit_image, rows[unit][unit_image] in ((2, 0), (-2, 0)))
