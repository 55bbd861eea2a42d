"""Re-derive the witnesses of failed filters in JSON reports.

    python3 tests/witness_check.py tests/golden/*.json

Nothing is imported from the package: every check starts from a
report's parameters and a certificate's coefficients and uses plain
integer and Fraction arithmetic.  For each certificate that fails one of
the filters below, the failure must follow from those numbers:

* totally-positive-bounded: the discriminant is >= 0, so every root is
  real and Descartes' rule counts exactly.  One Taylor shift to the
  witness bound and one sign-variation count give its `roots_above`,
  which is below d - i for the bound's position i among the bounds
  padded with 0 to the degree d; every earlier position passes.
* required-field: the witness discriminant D is that of the candidate,
  and D <= 0, or n does not divide D, or D/n is not a square.
* totally-real: the discriminant is negative.
* totally-positive: the witness discriminant is b^2 - 4c for the
  candidate x^2 + bx + c, and it is negative, or -b <= 0, or c <= 0.
* d-number: the witness `failing_index` is the least i with
  |a_n|^i not dividing |a_i|^n, a_i the coefficient of x^(n-i) and 0
  dividing only 0.

Passes are checked too, starting with the d-number test, which the
cubic and sum scans decide by their stepping and no longer run per
candidate: every candidate whose verdict passes d-number must be monic
with |a_n|^i dividing |a_i|^n for every i.

A failure or pass that does not follow raises AssertionError; otherwise
the counts of checked failures and of checked passes are printed.
"""
from __future__ import annotations

import json
import math
import sys
from collections import Counter
from fractions import Fraction
from typing import Sequence


def discriminant(cs: Sequence[int]) -> int:
    """Discriminant of a quadratic or cubic, constant coefficient first."""
    if len(cs) == 3:
        c, b, a = cs
        return b * b - 4 * a * c
    d, c, b, a = cs
    return 18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * a * c ** 3 - 27 * a * a * d * d


def roots_above(cs: Sequence[int], bound: Fraction) -> int:
    """Sign variations of v^n p((y + u)/v) for bound = u/v, the roots of
    a real-rooted p above bound, with multiplicity."""
    u, v, n = bound.numerator, bound.denominator, len(cs) - 1
    shifted = [sum(cs[k] * v ** (n - k) * math.comb(k, j) * u ** (k - j) for k in range(j, n + 1))
               for j in range(n + 1)]
    signs = [c > 0 for c in shifted if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _is_square(m: int) -> bool:
    return m >= 0 and math.isqrt(m) ** 2 == m


def _divides(x: int, y: int) -> bool:
    return y == 0 if x == 0 else y % x == 0


def d_number_failures(cs: Sequence[int]) -> list[int]:
    """Every i with |a_n|^i not dividing |a_i|^n, a_i the coefficient of
    x^(n-i)."""
    d, a_n = len(cs) - 1, abs(cs[0])
    return [i for i in range(1, d + 1) if not _divides(a_n ** i, abs(cs[d - i]) ** d)]


def check_failure(parameters: dict, cs: list[int], name: str, witness: dict) -> None:
    d = len(cs) - 1
    if name == "totally-positive-bounded":
        assert d == 1 or discriminant(cs) >= 0, "bound failure of a non-real candidate"
        bound = Fraction(witness["bound"])
        padded = sorted(Fraction(b) for b in parameters.get("root_lower_bounds", ()))[:d]
        padded += [Fraction(0)] * (d - len(padded))
        i = padded.index(bound)
        assert all(roots_above(cs, b) >= d - j for j, b in enumerate(padded[:i])), "an earlier bound fails"
        above = roots_above(cs, bound)
        assert above == witness["roots_above"] and above < d - i, f"{above} roots above {bound}"
    elif name == "required-field":
        n, disc = parameters["required_field"], discriminant(cs)
        assert witness["discriminant"] == str(disc)
        assert disc <= 0 or disc % n or not _is_square(disc // n), f"field of {disc} is Q(sqrt({n}))"
    elif name == "totally-real":
        assert d > 1 and discriminant(cs) < 0, "totally-real failure with real roots"
    elif name == "totally-positive":
        c, b, _ = cs
        disc = discriminant(cs)
        assert witness["discriminant"] == str(disc)
        assert disc < 0 or -b <= 0 or c <= 0, "both roots are positive reals"
    elif name == "d-number":
        failing = d_number_failures(cs)
        assert failing and witness["failing_index"] == failing[0], f"failing indices {failing}"


CHECKED = ("totally-positive-bounded", "required-field", "totally-real", "totally-positive",
           "d-number")


def certificates(doc: dict):
    """(report, certificate) for every certificate in one report set."""
    for report in doc["reports"]:
        results = report.get("results")
        if isinstance(results, dict):
            for cert in results.get("certificates") or ():
                yield report, cert


def check_report_set(doc: dict) -> Counter:
    """Check every failure of the CHECKED filters in one report set and
    count them by filter."""
    counts: Counter = Counter()
    for report, cert in certificates(doc):
        last = cert["filters"][-1]
        if not last["passed"] and last["name"] in CHECKED:
            try:
                check_failure(report["parameters"], cert["coefficients"], last["name"], last["witness"])
            except AssertionError as exc:
                raise AssertionError(f"{report['case']} {cert['candidate']}: {exc}") from None
            counts[last["name"]] += 1
    return counts


def check_passes(doc: dict) -> Counter:
    """Check every d-number pass in one report set and count them."""
    counts: Counter = Counter()
    for report, cert in certificates(doc):
        cs = cert["coefficients"]
        for result in cert["filters"]:
            if result["passed"] and result["name"] == "d-number":
                assert cs[-1] == 1 and not d_number_failures(cs), \
                    f"{report['case']} {cert['candidate']}: not a d-number"
                counts["d-number"] += 1
    return counts


def main(paths: list[str]) -> int:
    failures: Counter = Counter()
    passes: Counter = Counter()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        failures += check_report_set(doc)
        passes += check_passes(doc)
    print(json.dumps({"failures": dict(sorted(failures.items())),
                      "passes": dict(sorted(passes.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
