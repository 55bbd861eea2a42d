"""Verification of candidate S-matrices over a real quadratic field.

A candidate matrix is given exactly: every entry is (a + b*sqrt(n))/2
for integers or rationals a, b over one shared squarefree n.  The
checks are the ones that certify (or refute) modular / super-modular
data at small rank:

* row orthogonality against the declared global dimension,
* non-negative integrality of the Verlinde coefficients,
* formal codegrees read off the unit row,
* total squared dimension against the declared dimension,
* existence of the permutation realizing sqrt(n) -> -sqrt(n) on
  character ratios.

Orthogonality and Verlinde run on an exact integer kernel: the entries
are rescaled once to integer half-pairs (A, B) over one common
denominator L, so an entry is (A + B*sqrt(n))/(2L), and every inner
product or Verlinde sum is accumulated as a pair of Python ints.  The
Verlinde coefficients are symmetric in X, Y, Z, so only X <= Y <= Z is
computed.  Field elements are built only for the per-column weights
1/(declared_dim * d_W) and for the text of a failing value.

Everything is verification of supplied data; nothing here solves for
unknown entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Union

from .exactcore import QuadraticFieldElement, record


class DegenerateColumnError(ValueError):
    """A dimension entry is zero where a division by it is required."""


Scalar = Union[int, Fraction, QuadraticFieldElement]


@record
class CandidateSMatrix:
    """Symmetric square matrix of field elements with a declared total.

    kind is "modular" for a full S-matrix (declared_dim = dim C) or
    "super-modular-hat" for the hat block (declared_dim = dim C / 2).
    The unit row lists the dimensions d_X and must have d_I = 1.
    """

    entries: tuple[tuple[QuadraticFieldElement, ...], ...]
    unit_index: int
    declared_dim: QuadraticFieldElement
    kind: str
    n: int

    def __post_init__(self) -> None:
        size = len(self.entries)
        if size == 0 or any(len(row) != size for row in self.entries):
            raise ValueError("entries must form a nonempty square matrix")
        if not 0 <= self.unit_index < size:
            raise ValueError("unit_index out of range")
        if self.kind not in ("modular", "super-modular-hat"):
            raise ValueError(f"unknown kind {self.kind!r}")
        for value in (self.declared_dim, *(e for row in self.entries for e in row)):
            if not value.is_rational and value.n != self.n:
                raise ValueError(f"mixed field generators: sqrt({value.n}) vs sqrt({self.n})")
        for i in range(size):
            for j in range(size):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i}, {j})")
        if self.entries[self.unit_index][self.unit_index] != 1:
            raise ValueError("unit diagonal entry must be 1")

    @staticmethod
    def from_half_pairs(
        rows: list[list[tuple[int, int]]],
        n: int,
        declared_dim: Scalar,
        unit_index: int = 0,
        kind: str = "modular",
    ) -> "CandidateSMatrix":
        """Build from (a, b) integer pairs, each meaning (a + b*sqrt(n))/2."""
        grid = tuple(
            tuple(QuadraticFieldElement(Fraction(a), Fraction(b), n) for a, b in row)
            for row in rows
        )
        zero = QuadraticFieldElement(Fraction(0), Fraction(0), n)
        return CandidateSMatrix(grid, unit_index, zero + declared_dim, kind, n)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def dims(self) -> tuple[QuadraticFieldElement, ...]:
        return self.entries[self.unit_index]


@record
class OrthogonalityReport:
    """passes iff all distinct rows are orthogonal and every row has
    squared norm declared_dim; violating_pair = first (i, j) that fails,
    with i == j marking a norm failure."""

    passes: bool
    violating_pair: Optional[tuple[int, int]] = None


def _integer_half_pairs(
    elements: Iterable[QuadraticFieldElement],
) -> tuple[int, list[tuple[int, int]]]:
    """(L, pairs) with each element equal to (A + B*sqrt(n))/(2L) for its
    pair (A, B); L is the lcm of every half-coordinate denominator."""
    elements = list(elements)
    scale = 1
    for e in elements:
        scale = math.lcm(scale, e.a.denominator, e.b.denominator)
    return scale, [
        (e.a.numerator * (scale // e.a.denominator), e.b.numerator * (scale // e.b.denominator))
        for e in elements
    ]


def _integer_rows(matrix: CandidateSMatrix) -> tuple[int, list[list[tuple[int, int]]]]:
    size = matrix.size
    scale, flat = _integer_half_pairs(e for row in matrix.entries for e in row)
    return scale, [flat[i * size:(i + 1) * size] for i in range(size)]


def check_orthogonality(matrix: CandidateSMatrix) -> OrthogonalityReport:
    n = matrix.n
    scale, rows = _integer_rows(matrix)
    # a row inner product is (a + b*sqrt(n))/(4 L^2); the declared total
    # (a' + b'*sqrt(n))/2 on that denominator is 2 L^2 (a', b')
    norm = (2 * scale * scale * matrix.declared_dim.a, 2 * scale * scale * matrix.declared_dim.b)
    for i, row_i in enumerate(rows):
        for j in range(i, matrix.size):
            a = b = 0
            for (p, q), (r, s) in zip(row_i, rows[j]):
                a += p * r + n * q * s
                b += p * s + q * r
            if (a, b) != (norm if i == j else (0, 0)):
                return OrthogonalityReport(False, (i, j))
    return OrthogonalityReport(True)


@record
class FusionTensor:
    """Cubical array of fusion coefficients, indexed N[X][Y][Z]."""

    coefficients: tuple[tuple[tuple[int, ...], ...], ...]

    def __getitem__(self, index: int) -> tuple[tuple[int, ...], ...]:
        return self.coefficients[index]


@record
class VerlindeReport:
    """Integrality verdict for the (naive) Verlinde coefficients.

    tensor is present exactly when every coefficient is a non-negative
    integer; otherwise first_violation holds the offending (X, Y, Z)
    and first_value its exact value as text.
    """

    nonnegative_integral: bool
    tensor: Optional[FusionTensor] = None
    first_violation: Optional[tuple[int, int, int]] = None
    first_value: Optional[str] = None


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
    dims = matrix.dims
    for w, d in enumerate(dims):
        if d == 0:
            raise DegenerateColumnError(f"dimension column {w} is zero")
    n, size = matrix.n, matrix.size
    scale, rows = _integer_rows(matrix)
    # c_W = 1/(declared_dim * d_W) = (P + Q*sqrt(n))/(2M)
    weight_scale, weights = _integer_half_pairs(1 / (matrix.declared_dim * d) for d in dims)
    # each term s_XW s_YW c_W s_ZW is a product of four half-pairs
    denominator = 16 * scale**3 * weight_scale
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
                    return VerlindeReport(False, None, (x, y, z), str(value))
                c = a // denominator
                cube[x][y][z] = cube[x][z][y] = cube[y][x][z] = c
                cube[y][z][x] = cube[z][x][y] = cube[z][y][x] = c
    tensor = FusionTensor(tuple(tuple(tuple(row) for row in plane) for plane in cube))
    return VerlindeReport(True, tensor)


def formal_codegrees(matrix: CandidateSMatrix) -> list[QuadraticFieldElement]:
    """The multiset {declared_dim / d_X^2 : X}, ascending."""
    for w, d in enumerate(matrix.dims):
        if d == 0:
            raise DegenerateColumnError(f"dimension column {w} is zero")
    return sorted(matrix.declared_dim / (d * d) for d in matrix.dims)


def dimension_consistency(matrix: CandidateSMatrix) -> bool:
    """Whether the squared dimensions sum to the declared total."""
    total = sum(
        (d * d for d in matrix.dims),
        QuadraticFieldElement.from_rational(Fraction(0), matrix.n),
    )
    return total == matrix.declared_dim


@record
class GaloisPermutation:
    """Row/column permutation realizing sqrt(n) -> -sqrt(n) on ratios.

    mapping[y] is the column whose ratio vector equals the conjugated
    ratio vector of column y.  unit_image records where the unit goes;
    unit_image_dim_square_is_one whether its dimension squares to 1.
    """

    mapping: tuple[int, ...]
    n: int
    unit_image: int
    unit_image_dim_square_is_one: bool


@record
class GaloisSearchReport:
    found: bool
    permutation: Optional[GaloisPermutation] = None
    reason: Optional[str] = None


def find_galois_permutation(matrix: CandidateSMatrix) -> GaloisSearchReport:
    """Search for the permutation matching conjugated character ratios.

    Column y maps to the unique column y' with
    conj(s_XY / s_IY) = s_XY' / s_IY' for every X; the report says so
    when no column or more than one column matches.
    """
    dims = matrix.dims
    for w, d in enumerate(dims):
        if d == 0:
            return GaloisSearchReport(False, reason=f"dimension column {w} is zero")
    size = matrix.size
    ratios = [
        tuple(matrix.entries[x][y] / dims[y] for x in range(size))
        for y in range(size)
    ]
    mapping = []
    for y in range(size):
        image = tuple(r.conjugate() for r in ratios[y])
        matches = [yy for yy in range(size) if ratios[yy] == image]
        if not matches:
            return GaloisSearchReport(False, reason=f"no column matches conjugated ratios of column {y}")
        if len(matches) > 1:
            return GaloisSearchReport(False, reason=f"columns {matches} all match conjugated ratios of column {y}")
        mapping.append(matches[0])
    if sorted(mapping) != list(range(size)):
        return GaloisSearchReport(False, reason=f"mapping {mapping} is not a permutation")
    unit_image = mapping[matrix.unit_index]
    square = dims[unit_image] * dims[unit_image]
    perm = GaloisPermutation(tuple(mapping), matrix.n, unit_image, square == 1)
    return GaloisSearchReport(True, permutation=perm)
