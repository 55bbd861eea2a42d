"""Reports pinned byte for byte against renders stored in tests/golden/.

Any change to report text or JSON shows up here as a diff.  Re-record
the files only for a deliberate report change, and say so in CHANGES.md:

    fusion-arith run --all --format text --out tests/golden/bundled.txt
    fusion-arith run tests/golden/cases/*.case.json --format text --out tests/golden/extra.txt

    fusion-arith run tests/golden/cubic/*.case.json --format text --out tests/golden/cubic.txt
    fusion-arith run tests/golden/quadratic/*.case.json --format text --out tests/golden/quadratic.txt

and the same four with --format json into bundled.json, extra.json,
cubic.json and quadratic.json.  The JSON is sorted; each dict outside a
list has one key per line, and each list entry is one line of json's
compact encoder, so a coefficient list or a certificate reads as one
line.  The extra cases cover what the bundled ones do not: field
membership both ways, expectations that do not match, an S-matrix that
fails orthogonality, and an engine error.  The
engine error pins today's UnsupportedSquareClassError text on a
cyclotomic sum scan; deciding that case exactly will change the report
and re-record it.  The cubic cases are the benchmark's codegree scans
at N = 13, 14, 17, 19 and 22, the whole ladder; their JSON holds 224
bounded-roots witnesses (a bound and the count of roots above it),
which the bundled cases barely exercise.  The quadratic
cases are the benchmark's decomposition and field-mode sum-scan shapes:
56+20r5 at 5 and 6 terms, and a scan over a | 2000 whose JSON holds
119 certificates with null and dict witnesses and three-deep integer
solution lists.
"""
from __future__ import annotations

import glob
import hashlib
import json
import os
from collections import Counter

import pytest

from fusionarith import codegree_enum
from fusionarith.casefile import (
    bundled_case_paths,
    load_case,
    load_case_file,
    main,
    render_report,
    run_case,
)
from fusionarith.codegree_enum import _PASSED
from witness_check import check_passes, check_report_set

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
EXTRA_CASES = sorted(glob.glob(os.path.join(GOLDEN, "cases", "*.case.json")))
CUBIC_CASES = sorted(glob.glob(os.path.join(GOLDEN, "cubic", "*.case.json")))
QUADRATIC_CASES = sorted(glob.glob(os.path.join(GOLDEN, "quadratic", "*.case.json")))


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("name, args, status", [
    ("bundled", ["--all"], 0),
    ("extra", EXTRA_CASES, 1),
    ("cubic", CUBIC_CASES, 0),
    ("quadratic", QUADRATIC_CASES, 0),
])
def test_reports_match_golden_bytes(tmp_path, capsys, name, args, status, fmt, ext):
    out = tmp_path / f"{name}.{ext}"
    assert main(["run", *args, "--format", fmt, "--out", str(out)]) == status
    capsys.readouterr()
    with open(os.path.join(GOLDEN, f"{name}.{ext}"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_extra_cases_are_all_rendered():
    assert len(EXTRA_CASES) == 6
    assert len(CUBIC_CASES) == 5
    assert len(QUADRATIC_CASES) == 2


def _no_float(text: str):
    raise AssertionError(f"float {text} in a golden report")


def test_golden_json_reports_hold_no_floats():
    for name in ("bundled", "extra", "cubic", "quadratic"):
        with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
            json.loads(fh.read(), parse_float=_no_float)


def test_golden_passes_are_the_shared_witnessless_records():
    # a pass carries no witness, so the pipeline hands out one record per filter
    passes = Counter()
    for path in bundled_case_paths() + EXTRA_CASES + CUBIC_CASES + QUADRATIC_CASES:
        for cert in run_case(load_case_file(path)).results.get("certificates", ()):
            for result in cert.filter_results:
                if result.passed:
                    assert result.witness is None
                    assert result is _PASSED[result.name]
                    passes[result.name] += 1
    assert passes["d-number"] > 0 and passes["totally-positive-bounded"] > 0


def test_golden_failure_witnesses_follow_from_the_coefficients():
    # tests/witness_check.py re-derives each failure without the package
    counts = Counter()
    for name in ("bundled", "extra", "cubic", "quadratic"):
        with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
            counts += check_report_set(json.load(fh))
    assert counts == {"totally-positive-bounded": 224, "required-field": 97, "totally-real": 1092,
                      "totally-positive": 9, "d-number": 8}


def test_golden_d_number_passes_follow_from_the_coefficients():
    # the cubic and sum scans decide the d-number test by their stepping
    # and never run it on a candidate, so the checker makes it on every
    # pass the reports record
    counts = Counter()
    for name in ("bundled", "extra", "cubic", "quadratic"):
        with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
            counts += check_passes(json.load(fh))
    assert counts == {"d-number": 1455}


# sha256 of render_report(run_case(case), format) for two scans larger than
# any golden set's, recorded before scan results were stored as verdicts
# and rebuilt from their family: the field sum scan over a | 2^10 5^6, 17,577
# candidates in 77 rows with 50 survivors among them, and the cubic scan at
# N = 44, whose one product with P^2 | e^3 steps over 1,804 candidates while
# the scan skips every other product
AT_SCALE = {
    "sum-scan-2e10-5e6": (
        {"mode": "sum-scan", "global_dim": 10, "product_divides": 2**10 * 5**6,
         "trace_exceeds": 1, "trace_ratio_max": "1", "required_field": 5},
        "9159a785e9356351a4524273ac8aa95539599b108cd723e48a903e7317c736b0",
        "07cee21290cee42cc36bc11b92ff70859c645dee4d43351854fc6ad3b48261a5"),
    "cubic-44": (
        {"mode": "codegree", "global_dim": 44, "fixed_codegrees": ["44", "44", "44"],
         "orbit_degree": 3, "product_divides": 44**3, "root_lower_bounds": ["44/4", "44/2", "44"]},
        "200a7ef5ccbacbde9038c8434afb188a541244be0a7893694635519e14bbf34b",
        "3c6183841a2cd0345b2a2edf539a4b456c5fdfeb1813fa7875d102dc54ec60c1"),
}


@pytest.mark.parametrize("name", sorted(AT_SCALE))
def test_scan_reports_at_scale_keep_their_bytes(name):
    parameters, text_digest, json_digest = AT_SCALE[name]
    doc = {"schema": 1, "name": name, "kind": "class-equation", "parameters": parameters}
    report = run_case(load_case(json.dumps(doc, indent=1) + "\n"))
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        assert hashlib.sha256(render_report(report, fmt).encode()).hexdigest() == digest, fmt


SHARED_FAILURES = ("d-number", "totally-real", "totally-positive-bounded", "totally-positive",
                   "required-field", "cyclotomic")


def _shared_record(failure):
    """The module's one record of a failure the candidate and the
    instance's bounds determine: a witnessless one, or one keyed by its
    witness."""
    if failure.witness is None:
        return codegree_enum._FAILED.get(failure.name)
    return codegree_enum._KEYED.get((failure.name, *failure.witness.items()))


def test_golden_scans_store_each_shared_failure_once():
    # a scan stores one failing record per candidate; a failure of these
    # filters is its filter's shared record, and the passes before each
    # failing filter are one stored tuple of shared passes
    failures = Counter()
    for path in bundled_case_paths() + EXTRA_CASES + CUBIC_CASES + QUADRATIC_CASES:
        scan = run_case(load_case_file(path)).results.get("certificates")
        if scan is None:
            continue
        assert len(scan.failures) == len(scan)
        for failure in scan.failures:
            if failure is not None and failure.name in SHARED_FAILURES:
                assert _shared_record(failure) is failure
                failures[failure.name] += 1
        assert set(scan.prefixes) == {f.name for f in scan.failures if f is not None}
        assert all(r is _PASSED[r.name] for passes in scan.prefixes.values() for r in passes)
    assert failures == {"totally-real": 1092, "totally-positive-bounded": 224,
                        "required-field": 97, "totally-positive": 9, "d-number": 8}


def test_golden_cubic_scans_take_each_discriminant_once(monkeypatch):
    # the pipeline hands a totally real candidate straight to the bound
    # count, so the 224 bounded-roots failures and the candidates past
    # them no longer repeat the totally-real discriminant (1,468 calls)
    calls = []
    real = codegree_enum.poly_discriminant
    monkeypatch.setattr(codegree_enum, "poly_discriminant", lambda p: calls.append(p) or real(p))
    certificates = 0
    for path in CUBIC_CASES:
        before = len(calls)
        certificates += len(run_case(load_case_file(path)).results["certificates"])
        assert max(Counter(calls[before:]).values()) == 1, path
    assert (certificates, len(calls)) == (1244, 1468 - 224)
