"""Checks of CLI reports against computations made apart from the engine.

Nothing here imports the package under test.  Each check takes a spec
written by ``workloads.py`` and the report payload of that case, and
returns a list of problems; an empty list means the report is right.
The survivor oracle comes from ``tests/oracles.py``, which shares no
code with the engine either.
"""

from __future__ import annotations

import math
import re
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import brute_force_survivors  # noqa: E402


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


# ---------------------------------------------------------------------------
# class-equation codegree scans


def _real_triple_possible(product: int, ratio: Fraction, smallest_bound: Fraction) -> bool:
    """Whether real roots t <= u, v with t > smallest_bound can have product
    P and second symmetric function ratio*P.  Fixing t, u + v = P(ratio*t
    - 1)/t^2 and uv = P/t, real iff (u+v)^2 >= 4uv; t runs over a grid
    of (bound, P^(1/3)], and the smallest root of three never exceeds
    the cube root of the product."""
    top = Fraction(round(product ** (1 / 3) * 10**6), 10**6)
    steps = 400
    for i in range(1, steps + 1):
        t = smallest_bound + (top - smallest_bound) * Fraction(i, steps)
        if t ** 3 > product:
            break
        s = product * (ratio * t - 1) / (t * t)
        if s * s >= 4 * product / t:
            return True
    return False


def codegree_reference(spec: dict) -> dict:
    """Admissible products, certificate coefficients and survivors of a
    cubic codegree scan, from the definitions."""
    fixed = spec["fixed_codegrees"]
    bounds = sorted(Fraction(b) for b in spec["bounds"])
    residual = 1 - sum(Fraction(1, f) for f in fixed)
    bound_product = bounds[0] * bounds[1] * bounds[2]
    products, coefficients = [], set()
    for p in _divisors(spec["product_divides"]):
        e2 = residual * p
        if e2.denominator != 1 or not p > bound_product:
            continue
        if spec["real_roots"] and not _real_triple_possible(p, residual, bounds[0]):
            continue
        products.append(p)
        e2 = int(e2)
        for e1 in range(1, e2 + 1):
            # x^3 - e1 x^2 + e2 x - P is a d-number: P | e1^3, P^2 | e2^3
            if e1**3 % p == 0 and e2**3 % (p * p) == 0:
                coefficients.add((-p, e2, -e1, 1))
    survivors = brute_force_survivors(
        fixed, 3, spec["product_divides"], bounds,
        membership_conductor=spec["membership_conductor"],
        excluded_quadratic_subfields=[tuple(e) for e in spec["excluded"]],
        distinct_real_required=spec["real_roots"],
    )
    return {"admissible_products": products, "coefficients": coefficients,
            "survivors": survivors}


def check_codegree(spec: dict, report: dict, reference: dict) -> list[str]:
    results = report["results"]
    problems = []
    if results.get("admissible_products") != reference["admissible_products"]:
        problems.append(f"admissible products {results.get('admissible_products')} "
                        f"!= {reference['admissible_products']}")
    certs = results.get("certificates", [])
    got = [tuple(c["coefficients"]) for c in certs]
    if len(got) != len(set(got)) or set(got) != reference["coefficients"]:
        problems.append(f"{len(got)} certificates, expected the "
                        f"{len(reference['coefficients'])} d-numbers of the scan")
    if results.get("certificate_count") != len(certs):
        problems.append("certificate_count disagrees with the certificate list")
    survived = {tuple(c["coefficients"]) for c in certs if c["survived"]}
    if survived != set(reference["survivors"]):
        problems.append(f"survivors {sorted(survived)} != oracle {sorted(reference['survivors'])}")
    if len(results.get("survivors", [])) != len(survived):
        problems.append("survivor list disagrees with the certificates")
    for cert in certs:
        filters = cert["filters"]
        if cert["survived"] != all(f["passed"] for f in filters):
            problems.append(f"certificate {cert['candidate']} contradicts its filters")
            break
    if "expected" in spec and report.get("passed") is not True:
        problems.append("bundled case did not meet its expectations")
    return problems


# ---------------------------------------------------------------------------
# S-matrices

_SCALAR = re.compile(r"(?:(-?\d+(?:/\d+)?)(?=[+-]))?([+-]?\d+(?:/\d+)?)r(\d+)")


def parse_scalar(text: str) -> tuple[Fraction, Fraction, int]:
    """'15/2-5/2r5' -> (15/2, -5/2, 5); a plain rational has n = 0."""
    m = _SCALAR.fullmatch(text)
    if m is None:
        return Fraction(text), Fraction(0), 0
    rat = Fraction(m.group(1)) if m.group(1) else Fraction(0)
    return rat, Fraction(m.group(2)), int(m.group(3))


def check_kron(spec: dict, report: dict) -> list[str]:
    results = report["results"]
    expected = spec["expected"]
    problems = [f"{key} is not true" for key in
                ("orthogonal", "dimension_consistent", "verlinde_nonnegative_integral",
                 "galois_found") if results.get(key) is not True]
    for key in ("galois_permutation", "galois_unit_image",
                "galois_unit_image_dim_square_is_one"):
        if results.get(key) != expected[key]:
            problems.append(f"{key} {results.get(key)} != {expected[key]}")
    got = []
    for text in results.get("formal_codegrees", []):
        rat, coef, n = parse_scalar(text)
        if n not in (0, 5):
            problems.append(f"formal codegree {text} outside Q(r5)")
        got.append((rat, coef))
    if sorted(got) != sorted((Fraction(a), Fraction(b)) for a, b in expected["formal_codegrees"]):
        problems.append("formal codegrees are not the products of the factors' codegrees")
    return problems


def check_smatrix_expected(spec: dict, report: dict) -> list[str]:
    results = report["results"]
    return [f"{key} {results.get(key)} != stored {wanted}"
            for key, wanted in spec["expected"].items() if results.get(key) != wanted]


# ---------------------------------------------------------------------------
# decompositions and sum scans


def count_decompositions(n: int, a_total: int, b_total: int, max_terms: int) -> dict[int, int]:
    """Number of multisets of k pairs (alpha, beta) >= 1 with
    alpha^2 = n beta^2 (mod 4), sum(alpha^2 + n beta^2) = a_total and
    sum(alpha*beta) = b_total, for every k <= max_terms.  A knapsack over
    the admissible pairs, one pair at a time, with its multiplicity."""
    pairs = []
    beta = 1
    while n * beta * beta < a_total:
        alpha = 1
        while alpha * alpha + n * beta * beta <= a_total:
            if (alpha * alpha - n * beta * beta) % 4 == 0 and alpha * beta <= b_total:
                pairs.append((alpha * alpha + n * beta * beta, alpha * beta))
            alpha += 1
        beta += 1
    states = {(0, 0, 0): 1}
    for qa, qb in pairs:
        grown = defaultdict(int)
        for (k, a, b), c in states.items():
            m = 0
            while k + m <= max_terms and a + m * qa <= a_total and b + m * qb <= b_total:
                grown[(k + m, a + m * qa, b + m * qb)] += c
                m += 1
        states = grown
    return {k: states.get((k, a_total, b_total), 0) for k in range(1, max_terms + 1)}


def decomposition_reference(spec: dict) -> dict[int, int]:
    rat, coef = spec["target"]
    return count_decompositions(spec["n"], 4 * rat, 2 * coef, max(spec["term_counts"]))


def check_decomposition(spec: dict, report: dict, counts: dict[int, int]) -> list[str]:
    n = spec["n"]
    rat, coef = spec["target"]
    solutions = report["results"].get("solutions", {})
    problems = []
    if sorted(solutions, key=int) != sorted(str(k) for k in spec["term_counts"]):
        problems.append(f"term counts {sorted(solutions)} != {spec['term_counts']}")
    for k in spec["term_counts"]:
        found = solutions.get(str(k), [])
        seen = set()
        for sol in found:
            terms = tuple(sorted(tuple(t) for t in sol))
            if terms in seen:
                problems.append(f"terms={k}: duplicate solution {sol}")
            seen.add(terms)
            if len(terms) != k or any(a < 1 or b < 1 for a, b in terms):
                problems.append(f"terms={k}: malformed solution {sol}")
                continue
            if any((a * a - n * b * b) % 4 for a, b in terms):
                problems.append(f"terms={k}: {sol} breaks the parity condition")
            if (sum(a * a + n * b * b for a, b in terms) != 4 * rat
                    or sum(a * b for a, b in terms) != 2 * coef):
                problems.append(f"terms={k}: {sol} does not re-expand to {rat}+{coef}r{n}")
        if len(found) != counts[k]:
            problems.append(f"terms={k}: {len(found)} solutions, independent count {counts[k]}")
    return problems


def _rational_square(q: Fraction) -> bool:
    return (q >= 0 and math.isqrt(q.numerator) ** 2 == q.numerator
            and math.isqrt(q.denominator) ** 2 == q.denominator)


def _is_square_in_q_sqrt5(rat: Fraction, coef: Fraction) -> bool:
    """Whether rat + coef*r5 = (u + v*r5)^2 for rationals u, v.  Then
    u^2 + 5v^2 = rat and u^2 - 5v^2 = +-m with m^2 the norm, so u^2 and
    v^2 are rational squares fixed by the sign; |2uv| = |coef| follows."""
    norm = rat * rat - 5 * coef * coef
    if not _rational_square(norm):
        return False
    m = Fraction(math.isqrt(norm.numerator), math.isqrt(norm.denominator))
    return any(_rational_square(u2) and _rational_square((rat - u2) / 5)
               for u2 in ((rat + m) / 2, (rat - m) / 2))


def sum_scan_reference(spec: dict) -> dict[tuple[int, int, int], bool]:
    """Candidates x^2 - b x + a with a | product, b > trace_exceeds,
    b <= ratio*a and a | b^2 (the d-number condition), each with whether
    it survives: roots real and positive, discriminant 5*s^2 for an
    integer s, and global_dim over the largest root (b + s*r5)/2 a square
    in Q(r5).  That quotient is global_dim*(b - s*r5)/(2a)."""
    ratio = Fraction(spec["trace_ratio_max"])
    dim = spec["global_dim"]
    out = {}
    for a in _divisors(spec["product_divides"]):
        top = math.floor(ratio * a)
        for b in range(spec["trace_exceeds"] + 1, top + 1):
            if b * b % a:
                continue
            disc = b * b - 4 * a
            s = math.isqrt(disc // 5) if disc > 0 and disc % 5 == 0 else 0
            survived = (s > 0 and 5 * s * s == disc
                        and _is_square_in_q_sqrt5(Fraction(dim * b, 2 * a),
                                                  Fraction(-dim * s, 2 * a)))
            out[(a, -b, 1)] = survived
    return out


def check_sum_scan(spec: dict, report: dict, reference: dict) -> list[str]:
    results = report["results"]
    certs = results.get("certificates", [])
    got = [tuple(c["coefficients"]) for c in certs]
    problems = []
    if results.get("certificate_count") != len(reference):
        problems.append(f"certificate_count {results.get('certificate_count')} "
                        f"!= {len(reference)} from a | b^2")
    if len(got) != len(set(got)) or set(got) != set(reference):
        problems.append("certificate candidates differ from the a | b^2 scan")
    wrong = [c["candidate"] for c in certs
             if c["survived"] != reference.get(tuple(c["coefficients"]), c["survived"])]
    if wrong:
        problems.append(f"survival of {wrong[:3]} disagrees with the Q(r5) recomputation")
    if any(c["survived"] != all(f["passed"] for f in c["filters"]) for c in certs):
        problems.append("a certificate contradicts its filters")
    survivors = [c["candidate"] for c in certs if c["survived"]]
    if results.get("survivors") != survivors or results.get("survivor_count") != len(survivors):
        problems.append("survivor list disagrees with the certificates")
    return problems


# ---------------------------------------------------------------------------


def reference_for(spec: dict):
    """The independent computation a spec's check compares against."""
    if spec["check"] == "codegree":
        return codegree_reference(spec)
    if spec["check"] == "decomposition":
        return decomposition_reference(spec)
    if spec["check"] == "sum-scan":
        return sum_scan_reference(spec)
    return None


def check_case(spec: dict, report: dict | None, reference) -> list[str]:
    """Problems with one case's report; an engine error is one problem."""
    if report is None:
        return ["no report for this case"]
    if report.get("error") is not None:
        return [f"engine error: {report['error']}"]
    if report.get("passed") is False:
        return ["case failed its expectations"]
    kind = spec["check"]
    if kind == "codegree":
        return check_codegree(spec, report, reference)
    if kind == "kron":
        return check_kron(spec, report)
    if kind == "smatrix-expected":
        return check_smatrix_expected(spec, report)
    if kind == "decomposition":
        return check_decomposition(spec, report, reference)
    return check_sum_scan(spec, report, reference)
