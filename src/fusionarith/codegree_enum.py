"""Candidate enumeration for formal-codegree conjugate families.

A classification branch fixes some rational codegrees and leaves one
Galois orbit of unknown ones.  The class equation forces the two
trailing elementary symmetric functions of that orbit, so candidates
form a one-parameter family of monic integer polynomials.  This module
builds them from the admissible products, scans the free coefficient,
and runs each candidate through one ordered filter pipeline, whose
Certificate records every verdict up to the first failure.

Each scan is a family of candidates, rows of integer ranges fixed by
its instance, and one shared runner (_scan) that keeps each candidate's
verdict tuple and only the survivors' whole Certificates; a failure's
Certificate is rebuilt from the family when it is read.  The cubic and
sum scans' stepping decides the d-number test, so no candidate of
theirs runs it.

Three scan shapes cover the branches that occur:

* codegree scan (ClassEquationInstance): orbit of degree 1..3 with the
  product and next symmetric function forced;
* quadratic sum scan (QuadraticScanInstance): orbits x^2 - b x + a with
  a dividing a fixed number and b ranged by explicit inequalities, plus
  field and squared-dimension conditions;
* dimension pair scan (DimensionPairInstance): x^2 - t x + m with fixed
  trace t and scanned constant m.

All arithmetic is exact; no filter ever sees a floating-point number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from ._record import record
from .algint import (
    in_cyclic_cubic_field,
    is_d_number,
    passes_cyclotomic_test,
    quadratic_subfield_in_cyclotomic,
)
from .exactcore import (
    IntPolynomial,
    QuadraticFieldElement,
    UnsupportedDegreeError,
    _eval_hom,
    divisors,
    factor_integer,
    factor_over_rationals,
    fraction_sqrt,
    is_perfect_square,
    poly_discriminant,
    squarefree_part,
    sturm_real_root_count,
)


class InfeasibleInstanceError(ValueError):
    """The fixed codegrees already exhaust the class equation."""


class UnsupportedSquareClassError(ValueError):
    """The squared-dimension value falls outside the decidable cases."""


FILTER_D_NUMBER = "d-number"
FILTER_TOTALLY_REAL = "totally-real"
FILTER_POSITIVE_BOUNDED = "totally-positive-bounded"
FILTER_TOTALLY_POSITIVE = "totally-positive"
FILTER_CYCLOTOMIC = "cyclotomic"
FILTER_MEMBERSHIP = "membership"
FILTER_SUBFIELD = "subfield-exclusion"
FILTER_REQUIRED_FIELD = "required-field"
FILTER_DIM_SQUARE = "dim-square"


@record
class FilterResult:
    name: str
    passed: bool
    witness: Optional[dict] = None


# A verdict the candidate alone determines is one shared record: each
# filter's pass, a failure keyed by small integers the degree bounds, and
# a discriminant failure, stored without its witness.  _SHARED holds them
# by id, so an id names one record while the module lives.
_SHARED: dict[int, FilterResult] = {}


def _share(result: FilterResult) -> FilterResult:
    return _SHARED.setdefault(id(result), result)


_PASSED = {name: _share(FilterResult(name, True)) for name in (
    FILTER_D_NUMBER, FILTER_TOTALLY_REAL, FILTER_POSITIVE_BOUNDED, FILTER_TOTALLY_POSITIVE,
    FILTER_CYCLOTOMIC, FILTER_MEMBERSHIP, FILTER_SUBFIELD, FILTER_REQUIRED_FIELD,
    FILTER_DIM_SQUARE)}
_FAILED = {name: _share(FilterResult(name, False)) for name in (
    FILTER_TOTALLY_POSITIVE, FILTER_REQUIRED_FIELD, FILTER_CYCLOTOMIC)}
_KEYED: dict[tuple, FilterResult] = {}


def _keyed_failure(name: str, **witness: int) -> FilterResult:
    key = (name, *witness.items())
    if key not in _KEYED:
        _KEYED[key] = _share(FilterResult(name, False, witness))
    return _KEYED[key]


@record
class Certificate:
    """Audit record for one candidate polynomial.

    verdict holds every filter that ran, in pipeline order, ending at the
    first failure, so survived (none failed) reads the last.  The
    pipelines keep one verdict tuple for each sequence of shared records.
    filter_results gives the records complete: a totally-positive,
    required-field or cyclotomic failure is stored without its witness,
    the candidate's discriminant, which it derives here.
    """

    candidate: IntPolynomial
    verdict: tuple[FilterResult, ...]

    @property
    def filter_results(self) -> tuple[FilterResult, ...]:
        witness = self.derived_witness
        if witness is None:
            return self.verdict
        return self.verdict[:-1] + (FilterResult(self.verdict[-1].name, False, witness),)

    @property
    def derived_witness(self) -> Optional[dict]:
        """The witness filter_results gives a failure stored without one,
        or None when the verdict stores every witness itself."""
        last = self.verdict[-1]
        if last.passed or last.witness is not None or last.name not in _FAILED:
            return None
        return {"discriminant": str(poly_discriminant(self.candidate))}

    @property
    def survived(self) -> bool:
        return self.verdict[-1].passed

    @property
    def failed_filter(self) -> Optional[str]:
        return None if self.survived else self.verdict[-1].name


@record
class ClassEquationInstance:
    """One classification branch: fixed rational codegrees plus a single
    orbit of orbit_degree unknown ones.

    product_feasibility chooses how hard admissible_products prunes:
    "coarse" keeps every product above the bound product, "real-roots"
    additionally demands a real positive root family can exist.
    """

    global_dim: int
    fixed_codegrees: tuple[Fraction, ...]
    orbit_degree: int
    product_divides: Optional[int] = None
    root_lower_bounds: tuple[Fraction, ...] = ()
    product_feasibility: str = "coarse"
    membership_conductor: Optional[int] = None
    excluded_quadratic_subfields: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.global_dim < 1:
            raise ValueError("global_dim must be positive")
        if self.orbit_degree < 1:
            raise ValueError("orbit_degree must be positive")
        object.__setattr__(self, "fixed_codegrees",
                           tuple(Fraction(f) for f in self.fixed_codegrees))
        if any(f <= 0 for f in self.fixed_codegrees):
            raise ValueError("fixed codegrees must be positive")
        if self.product_divides is None:
            object.__setattr__(self, "product_divides",
                               self.global_dim ** self.orbit_degree)
        if self.product_divides < 1:
            raise ValueError("product_divides must be positive")
        object.__setattr__(self, "root_lower_bounds",
                           tuple(Fraction(b) for b in self.root_lower_bounds))
        if self.product_feasibility not in ("coarse", "real-roots"):
            raise ValueError(f"unknown feasibility mode {self.product_feasibility!r}")


def residual_target(instance: ClassEquationInstance) -> Fraction:
    """Share of the class equation left for the unknown orbit:
    1 minus the reciprocals of the fixed codegrees."""
    r = Fraction(1) - sum((Fraction(1) / f for f in instance.fixed_codegrees), Fraction(0))
    if r <= 0:
        raise InfeasibleInstanceError(f"fixed codegrees leave residual {r} <= 0")
    return r


def _integer_cube_ceiling(m: int) -> int:
    """Least c with c^3 >= m, for m >= 0, by integer Newton descent."""
    if m < 0:
        raise ValueError(f"cube ceiling needs m >= 0, got {m}")
    if m == 0:
        return 0
    # 2^ceil(bits/3) is at least the real cube root; from above, Newton
    # steps decrease strictly until they reach the floor of the root
    c = 1 << -(-m.bit_length() // 3)
    while True:
        step = (2 * c + m // (c * c)) // 3
        if step >= c:
            break
        c = step
    return c if c ** 3 == m else c + 1


def _real_triple_feasible(product: int, ratio: Fraction, smallest_bound: Fraction) -> bool:
    """Whether real f1 <= f2 <= f3 with f1 > smallest_bound can have
    product P and second symmetric function ratio*P.

    Fixing the smallest root t forces the other two to have sum
    P(ratio*t - 1)/t^2 and product P/t; they are real exactly when
    H(t) = P(num*t - den)^2 - 4 den^2 t^3 >= 0, and the smallest root
    never exceeds the cube root of P.
    """
    num, den = ratio.numerator, ratio.denominator
    h = (IntPolynomial((-den, num)) * IntPolynomial((-den, num))) * product \
        + IntPolynomial((0, 0, 0, -4 * den * den))
    upper = Fraction(_integer_cube_ceiling(product))
    if smallest_bound >= upper:
        return False
    if h.sign_at(smallest_bound) > 0 or h.sign_at(upper) >= 0:
        return True
    return sturm_real_root_count(h.squarefree_part(), smallest_bound, upper) >= 1


def admissible_products(instance: ClassEquationInstance) -> list[int]:
    """Divisors of product_divides that can be the product of the orbit.

    Kept products P have r*P a positive integer and exceed the product
    of the root lower bounds; in "real-roots" mode a quadratic orbit
    must also have positive discriminant and a cubic orbit must pass
    the real-family window test.
    """
    r = residual_target(instance)
    bound_product = Fraction(1)
    for b in instance.root_lower_bounds:
        bound_product *= b
    out = []
    for p in divisors(instance.product_divides):
        e = r * p
        if e.denominator != 1:
            continue
        if not p > bound_product:
            continue
        if instance.product_feasibility == "real-roots":
            if instance.orbit_degree == 2 and not e * e - 4 * p > 0:
                continue
            if instance.orbit_degree == 3:
                bounds = sorted(instance.root_lower_bounds)
                smallest = bounds[0] if bounds else Fraction(0)
                if not _real_triple_feasible(p, r, smallest):
                    continue
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# the codegree filter pipeline

def _filter_d_number(p: IntPolynomial) -> FilterResult:
    verdict = is_d_number(p)
    if verdict.passes:
        return _PASSED[FILTER_D_NUMBER]
    return _keyed_failure(FILTER_D_NUMBER, failing_index=verdict.failing_index)


def _filter_totally_real(p: IntPolynomial) -> FilterResult:
    """All roots of p, of degree 1 to 3, are real exactly when p is
    linear or its discriminant is >= 0.  A negative discriminant means
    distinct roots, one conjugate pair of them not real, so the witness
    counts degree - 2 real roots among degree distinct ones."""
    if p.degree == 1 or poly_discriminant(p) >= 0:
        return _PASSED[FILTER_TOTALLY_REAL]
    return _keyed_failure(FILTER_TOTALLY_REAL, real_root_count=p.degree - 2,
                          distinct_root_count=p.degree)


def _roots_above(p: IntPolynomial, b: Fraction) -> int:
    """Roots of p above b, with multiplicity, when all roots of p are
    real: for b = u/v they are the positive roots of v^d * p((y + u)/v),
    whose coefficients, zeros skipped, change sign exactly that often
    (Descartes' rule is exact on real-rooted polynomials)."""
    shifted = _eval_hom(p.coeffs, IntPolynomial((b.numerator, 1)), b.denominator)
    signs = [c > 0 for c in shifted.coeffs if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _filter_positive_bounded(p: IntPolynomial, bounds: tuple[Fraction, ...]) -> FilterResult:
    """The bound filter on its own: non-real roots fail it, and a p whose
    roots are all real goes to _bound_count."""
    if not _filter_totally_real(p).passed:
        return FilterResult(FILTER_POSITIVE_BOUNDED, False, {"reason": "non-real roots"})
    return _bound_count(p, bounds)


def _bound_count(p: IntPolynomial, bounds: tuple[Fraction, ...]) -> FilterResult:
    """The i-th smallest root of p exceeds the i-th smallest bound, the
    bounds padded with 0 to the degree d.  With roots r_0 <= ... <= r_(d-1)
    all real, r_i > b exactly when at least d - i roots exceed b."""
    d = p.degree
    padded = sorted(bounds)[:d]
    padded += [Fraction(0)] * (d - len(padded))
    for i, bound in enumerate(padded):
        above = _roots_above(p, bound)
        if above < d - i:
            return FilterResult(FILTER_POSITIVE_BOUNDED, False,
                                {"bound": str(bound), "roots_above": above})
    return _PASSED[FILTER_POSITIVE_BOUNDED]


def _filter_cyclotomic(p: IntPolynomial) -> FilterResult:
    if passes_cyclotomic_test(p):
        return _PASSED[FILTER_CYCLOTOMIC]
    return _FAILED[FILTER_CYCLOTOMIC]


def _filter_membership(factors: Sequence[IntPolynomial], conductor: int) -> FilterResult:
    for f in factors:
        if f.degree == 1:
            continue
        if f.degree == 2:
            return FilterResult(
                FILTER_MEMBERSHIP, False,
                {"quadratic_factor": list(f.coeffs),
                 "field_squarefree_part": squarefree_part(poly_discriminant(f)),
                 "conductor": conductor},
            )
        if not in_cyclic_cubic_field(f, conductor):
            return FilterResult(FILTER_MEMBERSHIP, False, {"conductor": conductor})
    return _PASSED[FILTER_MEMBERSHIP]


def _filter_subfield_exclusion(
    factors: Sequence[IntPolynomial], excluded: tuple[tuple[int, int], ...]
) -> FilterResult:
    rationals = [str(r) for r in sorted(Fraction(-f.coeffs[0], f.coeffs[1])
                                        for f in factors if f.degree == 1)]
    for f in factors:
        if f.degree != 2:
            continue
        d = squarefree_part(poly_discriminant(f))
        for d_excluded, modulus in excluded:
            if d == d_excluded and not quadratic_subfield_in_cyclotomic(d, modulus):
                return FilterResult(
                    FILTER_SUBFIELD, False,
                    {"rational_roots": rationals,
                     "quadratic_factor": list(f.coeffs),
                     "field_squarefree_part": d,
                     "excluded_pair": [d_excluded, modulus]},
                )
    return _PASSED[FILTER_SUBFIELD]


_VERDICTS: dict[tuple[int, ...], tuple[FilterResult, ...]] = {}


def _verdict(results: list[FilterResult]) -> tuple[FilterResult, ...]:
    """results as a certificate stores them.  Only a sequence of shared
    records enters the table, so the table is bounded by the pipelines'
    filters and witness keys, never by the candidates."""
    key = tuple(map(id, results))
    if not all(map(_SHARED.__contains__, key)):
        return tuple(results)
    return _VERDICTS.setdefault(key, tuple(results))


def _run_filters(p: IntPolynomial, steps: Sequence[Callable[[IntPolynomial], FilterResult]]) -> Certificate:
    """Apply the filters to p in order, stopping at the first failure."""
    results = []
    for step in steps:
        result = step(p)
        results.append(result)
        if not result.passed:
            break
    return Certificate(p, _verdict(results))


def run_filter_pipeline(p: IntPolynomial, instance: ClassEquationInstance,
                        stepped: bool = False) -> Certificate:
    """Run the canonical pipeline on one monic candidate.

    Order: d-number, totally-real, per-root lower bounds, cyclotomic,
    then the optional membership and subfield-exclusion filters.
    Evaluation stops at the first failure.  stepped says the scan's
    stepping has already proved p a d-number: the verdict then opens
    with the shared pass, and the test is not run.
    """
    if not p.is_monic:
        raise ValueError("pipeline candidates must be monic")
    results = [_PASSED[FILTER_D_NUMBER] if stepped else _filter_d_number(p)]
    if results[-1].passed:
        results.append(_filter_totally_real(p))
    if results[-1].passed:
        results.append(_bound_count(p, instance.root_lower_bounds))
    if results[-1].passed:
        results.append(_filter_cyclotomic(p))
    if results[-1].passed and (instance.membership_conductor is not None
                               or instance.excluded_quadratic_subfields):
        factors = factor_over_rationals(p)  # shared by the two optional filters
        if instance.membership_conductor is not None:
            results.append(_filter_membership(factors, instance.membership_conductor))
        if results[-1].passed and instance.excluded_quadratic_subfields:
            results.append(_filter_subfield_exclusion(factors, instance.excluded_quadratic_subfields))
    return Certificate(p, _verdict(results))


def _candidates(family: tuple) -> Iterator[IntPolynomial]:
    """The candidates of a scan family, in scan order: each row (low,
    values, high) gives the coefficients (*low, v, *high) for v in values."""
    for low, values, high in family:
        for v in values:
            yield IntPolynomial((*low, v, *high))


@record
class ScanResult:
    """The certificates of one scan, survivors first, then the failures in
    scan order.

    family is the scan's candidates as _candidates reads them, verdicts
    each candidate's verdict tuple in scan order, and survivors the whole
    Certificates of the candidates that passed.  len() counts every
    certificate.  Iterating rebuilds each failure's Certificate from the
    family as it is reached, so none outlives the entry written from it.
    A scan result equals another, or a list, of the same certificates.
    """

    family: tuple
    verdicts: list
    survivors: tuple

    def __len__(self) -> int:
        return len(self.verdicts)

    def __iter__(self) -> Iterator[Certificate]:
        yield from self.survivors
        for p, verdict in zip(_candidates(self.family), self.verdicts):
            if not verdict[-1].passed:
                yield Certificate(p, verdict)

    def __getitem__(self, i):
        return list(self)[i]  # rebuilds every certificate; iterate instead

    def __eq__(self, other):
        if not isinstance(other, (ScanResult, list)):
            return NotImplemented
        return list(self) == list(other)


def _assert_survivor_sign_pattern(cert: Certificate) -> None:
    # totally positive degree-n polynomials alternate coefficient signs
    p = cert.candidate
    n = p.degree
    for i in range(n + 1):
        c = p.coeffs[n - i]
        assert c == 0 or (c > 0) == (i % 2 == 0), f"sign pattern broken in {p}"


def _scan(family: tuple, judge: Callable[[IntPolynomial], Certificate]) -> ScanResult:
    """Judge every candidate of the family, keeping its verdict, and the
    whole Certificate only when it survives."""
    verdicts, survivors = [], []
    for p in _candidates(family):
        cert = judge(p)
        verdicts.append(cert.verdict)
        if cert.survived:
            _assert_survivor_sign_pattern(cert)
            survivors.append(cert)
    return ScanResult(family, verdicts, tuple(survivors))


def enumerate_candidates(instance: ClassEquationInstance) -> ScanResult:
    """Certificates for every candidate of the instance, survivors first.

    Each admissible product P forces e = residual * P, an integer, as
    the next symmetric function: the candidates are x - P, x^2 - e x + P
    and x^3 - e1 x^2 + e x - P.  For a cubic orbit the free coefficient
    e1 runs over 1..e restricted to values whose polynomial is a
    d-number.  The polynomial with e1 = e + 1 never has three real
    roots: it is x(x - 1)(x - e) - P with 1 <= e <= P, and the local
    maximum of x(x - 1)(x - e) lies in (0, 1), where it is below e/4 < P,
    so its discriminant is negative.

    The cubic's d-number test is P^i | a_i^3 for i = 1, 2, 3, with a_1 =
    e1, a_2 = e and a_3 = P.  At i = 3 it always holds.  e1 steps over
    the multiples of m = prod p^ceil(k/3) over p^k || P, which are
    exactly the e1 with P | e1^3, so it holds at i = 1 for every stepped
    e1.  At i = 2 it reads P^2 | e^3, which does not involve e1: it is
    tested once per product.  A product that fails it has no d-number
    candidate, builds none and is skipped; every candidate of a product
    that passes is a d-number, and its verdict opens with the shared
    pass.  Linear and quadratic candidates run the test itself.
    """
    n = instance.orbit_degree
    if n > 3:
        raise UnsupportedDegreeError(f"orbit degree {n} not supported")
    r = residual_target(instance)
    family = []
    for product in admissible_products(instance):
        e = int(r * product)
        if n < 3:
            family.append(((), (-product,), (1,)) if n == 1 else ((product,), (-e,), (1,)))
        elif e ** 3 % product ** 2 == 0:
            step = math.prod(prime ** -(-k // 3) for prime, k in factor_integer(product))
            # -e1 for e1 = step, 2 step, ... up to e
            family.append(((-product, e), range(-step, -e - 1, -step), (1,)))
    return _scan(tuple(family), lambda p: run_filter_pipeline(p, instance, stepped=n == 3))


# ---------------------------------------------------------------------------
# quadratic sum scan

@record
class QuadraticScanInstance:
    """Scan x^2 - b x + a over a | product_divides, b > trace_exceeds,
    b <= trace_ratio_max * a, with the orbit field pinned to
    Q(sqrt(required_field)) and the squared-dimension condition chosen
    by dim_square_mode ("field" or "cyclotomic")."""

    global_dim: int
    product_divides: int
    trace_exceeds: int
    trace_ratio_max: Fraction
    required_field: int
    dim_square_mode: str = "field"
    cyclotomic_modulus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.global_dim < 1 or self.product_divides < 1:
            raise ValueError("dimensions must be positive")
        object.__setattr__(self, "trace_ratio_max", Fraction(self.trace_ratio_max))
        if self.required_field < 2 or squarefree_part(self.required_field) != self.required_field:
            raise ValueError("required_field must be squarefree and >= 2")
        if self.dim_square_mode not in ("field", "cyclotomic"):
            raise ValueError(f"unknown dim_square_mode {self.dim_square_mode!r}")
        if self.dim_square_mode == "cyclotomic" and self.cyclotomic_modulus is None:
            raise ValueError("cyclotomic mode needs cyclotomic_modulus")


def _filter_totally_positive(p: IntPolynomial) -> FilterResult:
    c, b, _ = p.coeffs
    disc = b * b - 4 * c
    if disc >= 0 and -b > 0 and c > 0:
        return _PASSED[FILTER_TOTALLY_POSITIVE]
    return _FAILED[FILTER_TOTALLY_POSITIVE]


def _filter_required_field(p: IntPolynomial, n: int) -> FilterResult:
    """The discriminant D has squarefree part n, itself squarefree,
    exactly when D > 0, n | D and D/n is a perfect square."""
    disc = poly_discriminant(p)
    if disc > 0 and disc % n == 0 and is_perfect_square(disc // n) is not None:
        return _PASSED[FILTER_REQUIRED_FIELD]
    return _FAILED[FILTER_REQUIRED_FIELD]


def _rational_squarefree_part(q: Fraction) -> int:
    return squarefree_part(q.numerator * q.denominator)


def _filter_dim_square(p: IntPolynomial, instance: QuadraticScanInstance) -> FilterResult:
    n = instance.required_field
    c, b, _ = p.coeffs
    disc = b * b - 4 * c
    s = math.isqrt(disc // n)
    largest_root = QuadraticFieldElement(Fraction(-b), Fraction(s), n)
    q = QuadraticFieldElement.from_rational(Fraction(instance.global_dim), n) / largest_root
    if q.sqrt() is not None:
        if (instance.dim_square_mode == "field"
                or quadratic_subfield_in_cyclotomic(n, instance.cyclotomic_modulus)):
            return _PASSED[FILTER_DIM_SQUARE]
        return FilterResult(
            FILTER_DIM_SQUARE, False,
            {"dim_square": str(q), "field": n, "modulus": instance.cyclotomic_modulus},
        )
    if instance.dim_square_mode == "field":
        return FilterResult(FILTER_DIM_SQUARE, False, {"dim_square": str(q)})
    norm_root = fraction_sqrt(q.norm())
    if norm_root is None:
        raise UnsupportedSquareClassError(
            f"norm of {q} is not a rational square; its square root generates "
            "a quartic field outside the decidable biquadratic case")
    modulus = instance.cyclotomic_modulus
    trace = q.trace()
    checks = [n]
    for t in (trace + 2 * norm_root, trace - 2 * norm_root):
        d = _rational_squarefree_part(t)
        if d != 1:
            checks.append(d)
    for d in checks:
        if not quadratic_subfield_in_cyclotomic(d, modulus):
            return FilterResult(
                FILTER_DIM_SQUARE, False,
                {"dim_square": str(q), "norm_sqrt": str(norm_root),
                 "subfield": d, "modulus": modulus},
            )
    return _PASSED[FILTER_DIM_SQUARE]


def enumerate_quadratic_scan(instance: QuadraticScanInstance) -> ScanResult:
    """Certificates for the quadratic sum scan, survivors first.

    Candidates x^2 - b x + a are generated already d-numbers, which the
    certificate records with the shared pass, then go through the
    totally-positive, required-field and dim-square filters.  The
    d-number test is a | b^2 and a^2 | a^2.  a | b^2 exactly when b is a
    multiple of m = t * isqrt(a / t), t the squarefree part of a (m is
    the product of p^ceil(e/2) over p^e || a), and b steps over those
    multiples only, so no candidate is tested.
    """
    steps = (lambda p: _PASSED[FILTER_D_NUMBER], _filter_totally_positive,
             lambda p: _filter_required_field(p, instance.required_field),
             lambda p: _filter_dim_square(p, instance))
    family = []
    for a in divisors(instance.product_divides):
        b_top = math.floor(instance.trace_ratio_max * a)
        t = squarefree_part(a)
        m = t * math.isqrt(a // t)
        # -b for b the multiples of m in trace_exceeds < b <= b_top
        family.append(((a,), range(-(instance.trace_exceeds // m + 1) * m, -b_top - 1, -m), (1,)))
    return _scan(tuple(family), lambda p: _run_filters(p, steps))


# ---------------------------------------------------------------------------
# dimension pair scan

@record
class DimensionPairInstance:
    """Scan x^2 - trace x + m for m over an inclusive range; candidates
    must be d-numbers with all roots real."""

    trace: int
    constant_range: tuple[int, int]

    def __post_init__(self) -> None:
        if self.trace < 1:
            raise ValueError("trace must be positive")
        lo, hi = self.constant_range
        if lo > hi or lo < 1:
            raise ValueError("constant_range must be a nonempty positive range")


def enumerate_dimension_pairs(instance: DimensionPairInstance) -> ScanResult:
    """Certificates x^2 - trace x + m for every m in range, survivors
    first; the pipeline is d-number, which each candidate runs, then
    totally-real."""
    steps = (_filter_d_number, _filter_totally_real)
    lo, hi = instance.constant_range
    family = (((), range(lo, hi + 1), (-instance.trace, 1)),)
    return _scan(family, lambda p: _run_filters(p, steps))
