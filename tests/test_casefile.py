"""Case file loading, report rendering, and the command line."""
from __future__ import annotations

import glob
import io
import json
import os
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionarith import casefile
from fusionarith.casefile import (
    Case,
    CaseFormatError,
    bundled_case_paths,
    load_case,
    load_case_file,
    main,
    render_report,
    render_reports,
    run_case,
    _json_pieces,
    _plain,
    _scan_entries,
)
from fusionarith import codegree_enum
from fusionarith.codegree_enum import DimensionPairInstance, FilterResult, enumerate_dimension_pairs
from fusionarith.dimsolve import MAX_TERMS
from fusionarith.exactcore import IntPolynomial, QuadraticFieldElement, poly_discriminant
from fusionarith.smatrix import CandidateSMatrix, DegenerateColumnError

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
QUADRATIC_CASES = sorted(glob.glob(os.path.join(GOLDEN, "quadratic", "*.case.json")))
CUBIC_CASES = sorted(glob.glob(os.path.join(GOLDEN, "cubic", "*.case.json")))


def make_case(**overrides) -> str:
    doc = {
        "schema": 1,
        "name": "galois-smoke",
        "kind": "galois-structure",
        "parameters": {"moduli": [49]},
    }
    doc.update(overrides)
    return json.dumps(doc)


def failure_message(text: str) -> str:
    with pytest.raises(CaseFormatError) as err:
        load_case(text)
    return str(err.value)


# ---------------------------------------------------------------------------
# schema validation


def test_load_case_happy_path():
    case = load_case(make_case(notes=["kept for the record"]), source="smoke.case.json")
    assert isinstance(case, Case)
    assert case.name == "galois-smoke"
    assert case.kind == "galois-structure"
    assert case.expected is None
    assert case.notes == ("kept for the record",)
    assert case.source == "smoke.case.json"


def test_invalid_json_is_reported_with_source():
    with pytest.raises(CaseFormatError) as err:
        load_case("{nope", source="bad.case.json")
    assert str(err.value).startswith("bad.case.json: not valid JSON:")


def test_top_level_must_be_an_object():
    assert "$: expected an object, got list" in failure_message("[1, 2]")


def test_unknown_top_level_key(tmp_path, capsys):
    assert "$.bogus: unknown key" in failure_message(make_case(bogus=1))
    # the parity congruence is always required, so the key that relaxed it is gone
    doc = make_case(kind="dim-decomposition", parameters={
        "n": 5, "target": "14+5r5", "term_counts": [5], "require_algebraic_integer": True})
    target = tmp_path / "parity-knob.case.json"
    target.write_text(doc, encoding="utf-8")
    assert main(["validate", str(target)]) == 2
    assert main(["run", str(target)]) == 2
    assert "$.parameters.require_algebraic_integer: unknown key" in capsys.readouterr().err
    # every cubic scan runs e1 over 1..e, so the key that narrowed the
    # sweep is gone too
    doc = make_case(kind="class-equation", parameters={
        "global_dim": 7, "fixed_codegrees": ["7", "7", "7"], "orbit_degree": 3,
        "product_divides": 343, "scan_range": [21, 28]})
    target = tmp_path / "narrowed-scan.case.json"
    target.write_text(doc, encoding="utf-8")
    assert main(["validate", str(target)]) == 2
    assert main(["run", str(target)]) == 2
    assert "$.parameters.scan_range: unknown key" in capsys.readouterr().err


def test_missing_required_key():
    doc = json.loads(make_case())
    del doc["kind"]
    assert "$.kind: missing required key" in failure_message(json.dumps(doc))


def test_unsupported_schema_version():
    assert "$.schema: unsupported schema version 2" in failure_message(make_case(schema=2))


def test_booleans_are_not_integers():
    assert "$.schema: expected an integer, got True" in failure_message(make_case(schema=True))


def test_empty_name_rejected():
    assert "$.name: name must be nonempty" in failure_message(make_case(name=""))


def test_unknown_kind():
    assert "$.kind: unknown kind 'frobnicate'" in failure_message(
        make_case(kind="frobnicate"))


def test_unknown_expected_key():
    assert "$.expected.bogus: unknown key" in failure_message(
        make_case(expected={"bogus": 1}))


# reports hold exact values only, so a float anywhere in an expected value
# fails at load
@pytest.mark.parametrize("expected, where", [
    ({"structures": 1.0}, "$.expected.structures"),
    ({"structures": {"49": [2, 3, 7.0]}}, "$.expected.structures.49[2]"),
    ({"structures": {"49": float("nan")}}, "$.expected.structures.49"),
])
def test_float_in_expected_is_rejected_at_load(tmp_path, capsys, expected, where):
    doc = make_case(expected=expected)
    assert f"{where}: expected an exact value" in failure_message(doc)
    target = tmp_path / "float-expected.case.json"
    target.write_text(doc, encoding="utf-8")
    assert main(["validate", str(target)]) == 2
    assert main(["run", str(target), "--format", "json"]) == 2
    assert capsys.readouterr().out == ""


def _in_lists(depth: int):
    """1 wrapped in depth single-item lists."""
    value = 1
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("data, message", [
    (b'{"schema": 1, "name": "\xff"}', "not valid JSON: 'utf-8' codec"),
    ('{"schema": ' + "9" * 5000 + "}", None),  # over int's 4300-digit limit on 3.11+
    ("[" * 100_000 + "]" * 100_000, "not valid JSON: maximum recursion depth"),
    (make_case(expected={"structures": _in_lists(900)}),
     "$.expected.structures[0][0][0][0]: nested more than 4 levels deep"),
], ids=["invalid-utf8", "long-integer", "deep-arrays", "deep-expected"])
def test_malformed_documents_exit_2(tmp_path, capsys, data, message):
    if message is not None:
        assert message in failure_message(data)
    target = tmp_path / "malformed.case.json"
    target.write_bytes(data if isinstance(data, bytes) else data.encode())
    assert main(["validate", str(target)]) == 2
    assert main(["run", str(target), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed.case.json: ")


def test_expected_values_nest_at_most_four_levels():
    assert load_case(make_case(expected={"structures": _in_lists(4)})).expected
    assert "$.expected.structures.a[0][0][0]: nested more than 4 levels deep" in failure_message(
        make_case(expected={"structures": {"a": _in_lists(4)}}))


def test_bad_rational_carries_its_json_path():
    params = {"global_dim": 7, "fixed_codegrees": ["7", "7", "7"], "orbit_degree": 3,
              "root_lower_bounds": ["7/4", "1/0"]}
    message = failure_message(make_case(kind="class-equation", parameters=params))
    assert "$.parameters.root_lower_bounds[1]: not an exact rational" in message


def test_instance_validation_surfaces_at_the_parameters_path():
    params = {"global_dim": 0, "fixed_codegrees": ["7"], "orbit_degree": 1}
    message = failure_message(make_case(kind="class-equation", parameters=params))
    assert "$.parameters: global_dim must be positive" in message


def test_int_pair_length_is_checked():
    params = {"global_dim": 7, "fixed_codegrees": ["7"], "orbit_degree": 3,
              "excluded_quadratic_subfields": [[5]]}
    message = failure_message(make_case(kind="class-equation", parameters=params))
    assert "expected a pair, got 1 entries" in message


def test_unknown_scan_mode():
    params = {"mode": "sideways", "global_dim": 7}
    message = failure_message(make_case(kind="class-equation", parameters=params))
    assert "$.parameters.mode: unknown mode 'sideways'" in message


def test_smatrix_kind_is_validated():
    params = {"n": 2, "kind": "weird", "declared_dim": "4",
              "entries": [[[2, 0]]]}
    message = failure_message(make_case(kind="smatrix-verify", parameters=params))
    assert "$.parameters.kind: unknown matrix kind 'weird'" in message


def test_smatrix_zero_dimension_is_rejected_at_load(tmp_path, capsys):
    params = {"n": 5, "kind": "modular", "declared_dim": "1",
              "entries": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}
    doc = make_case(kind="smatrix-verify", parameters=params)
    message = failure_message(doc)
    assert "$.parameters.entries[0][1]: dimension column 1 is zero" in message
    target = tmp_path / "zero-dim.case.json"
    target.write_text(doc, encoding="utf-8")
    assert main(["validate", str(target)]) == 2
    assert main(["run", str(target)]) == 2
    assert "dimension column 1 is zero" in capsys.readouterr().err
    # the matrix itself is orthogonal; direct library callers get the
    # engine's error when they build it
    with pytest.raises(DegenerateColumnError, match="dimension column 1 is zero"):
        CandidateSMatrix(params["entries"], 5, QuadraticFieldElement.parse("1", default_n=5))


@pytest.mark.parametrize("params, where", [
    ({"total": 2, "term_counts": [3], "divisor_bound": 4}, "$.parameters.term_counts[0]"),
    ({"total": 5, "term_counts": [2, 0], "divisor_bound": 4}, "$.parameters.term_counts[1]"),
    ({"total": 0, "term_counts": [1], "divisor_bound": 4}, "$.parameters.total"),
    ({"total": 5, "term_counts": [2], "divisor_bound": 0}, "$.parameters.divisor_bound"),
    ({"total": 2001, "term_counts": [3, MAX_TERMS + 1], "divisor_bound": 1},
     "$.parameters.term_counts[1]"),
])
def test_integer_decomposition_bounds_are_rejected_at_load(tmp_path, capsys, params, where):
    doc = make_case(kind="integer-decomposition", parameters=params)
    assert f"{where}: " in failure_message(doc)
    target = tmp_path / "bad-bounds.case.json"
    target.write_text(doc, encoding="utf-8")
    assert main(["validate", str(target)]) == 2
    assert main(["run", str(target)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("kind, params, where", [
    ("galois-structure", {"moduli": [49, 2]}, "$.parameters.moduli[1]"),
    ("field-membership", {"polynomial": [1, -3, 0, 1], "conductor": 8},
     "$.parameters.conductor"),
    ("class-equation", {"global_dim": 9, "fixed_codegrees": ["9", "9", "9", "9"],
                        "orbit_degree": 3, "product_divides": 729,
                        "root_lower_bounds": ["9/5", "18/5", "9"],
                        "product_feasibility": "real-roots", "membership_conductor": 5},
     "$.parameters.membership_conductor"),
    ("class-equation", {"global_dim": 7, "fixed_codegrees": ["7"], "orbit_degree": 4},
     "$.parameters.orbit_degree"),
    ("class-equation", {"global_dim": 6, "fixed_codegrees": ["2", "2"], "orbit_degree": 2},
     "$.parameters.fixed_codegrees"),
    # each of these used to pass validate and then fail as an engine error
    ("field-membership", {"polynomial": [1, 0, 1], "conductor": 9}, "$.parameters.polynomial"),
    ("field-membership", {"polynomial": [-1, 0, 0, 1], "conductor": 9},
     "$.parameters.polynomial"),
    ("field-membership", {"polynomial": [], "conductor": 7}, "$.parameters.polynomial"),
    ("dim-decomposition", {"n": 5, "target": "1/3+r5", "term_counts": [2]},
     "$.parameters.target"),
    ("class-equation", {"global_dim": 6, "fixed_codegrees": ["6", "6"], "orbit_degree": 2,
                        "product_divides": 36, "root_lower_bounds": ["1", "1"],
                        "product_feasibility": "real-roots",
                        "decomposition_subcases": [
                            {"n": 2, "target": "3+3r2", "rank_terms": 1},
                            {"n": 5, "target": "1/3+r5", "rank_terms": 2}]},
     "$.parameters.decomposition_subcases[1].target"),
    ("class-equation", {"global_dim": 7, "fixed_codegrees": ["7", "7", "7"], "orbit_degree": 3,
                        "product_divides": 343, "root_lower_bounds": ["7/4", "7/2", "7"],
                        "excluded_quadratic_subfields": [[5, 2401], [5, 0]]},
     "$.parameters.excluded_quadratic_subfields[1][1]"),
    ("class-equation", {"mode": "sum-scan", "global_dim": 10, "product_divides": 100,
                        "trace_exceeds": 10, "trace_ratio_max": "3/5", "required_field": 5,
                        "dim_square_mode": "cyclotomic", "cyclotomic_modulus": 0},
     "$.parameters.cyclotomic_modulus"),
    # the zero-dimension check indexes the unit row before construction,
    # and leaves an empty matrix to the constructor
    ("smatrix-verify", {"n": 5, "kind": "modular", "declared_dim": "4", "entries": []},
     "$.parameters.entries"),
    ("smatrix-verify", {"n": 5, "kind": "modular", "declared_dim": "4", "unit_index": -1,
                        "entries": [[[2, 0], [2, 0]], [[2, 0], [-2, 0]]]},
     "$.parameters.unit_index"),
    ("smatrix-verify", {"n": 5, "kind": "modular", "declared_dim": "4", "unit_index": 7,
                        "entries": [[[2, 0], [2, 0]], [[2, 0], [-2, 0]]]},
     "$.parameters.unit_index"),
    # a declared_dim in another field than n is the declared_dim's fault
    ("smatrix-verify", {"n": 2, "kind": "modular", "declared_dim": "1r3", "entries": [[[2, 0]]]},
     "$.parameters.declared_dim"),
    # the decomposition searches recurse once per term, and a count past
    # MAX_TERMS ran out of interpreter frames; a subcase's QuadraticTarget
    # rejects one at the subcase's path
    ("dim-decomposition", {"n": 5, "target": "2250+750r5", "term_counts": [MAX_TERMS + 1]},
     "$.parameters.term_counts[0]"),
    ("class-equation", {"global_dim": 6, "fixed_codegrees": ["6", "6"], "orbit_degree": 2,
                        "decomposition_subcases": [
                            {"n": 5, "target": "2250+750r5", "rank_terms": MAX_TERMS + 1}]},
     "$.parameters.decomposition_subcases[0]"),
    # the subfield filter compares squarefree parts, so an excluded d that
    # is not one would never match and silently keep the candidate alive
    ("class-equation", {"global_dim": 7, "fixed_codegrees": ["7", "7", "7"], "orbit_degree": 3,
                        "product_divides": 343, "root_lower_bounds": ["7/4", "7/2", "7"],
                        "excluded_quadratic_subfields": [[20, 2401]]},
     "$.parameters.excluded_quadratic_subfields[0][0]"),
    ("class-equation", {"global_dim": 7, "fixed_codegrees": ["7", "7", "7"], "orbit_degree": 3,
                        "excluded_quadratic_subfields": [[5, 2401], [1, 2401]]},
     "$.parameters.excluded_quadratic_subfields[1][0]"),
    ("class-equation", {"global_dim": 7, "fixed_codegrees": ["7", "7", "7"], "orbit_degree": 3,
                        "excluded_quadratic_subfields": [[0, 8]]},
     "$.parameters.excluded_quadratic_subfields[0][0]"),
    # solutions are listed by term count, so a repeated count would be
    # listed once and counted twice
    ("dim-decomposition", {"n": 5, "target": "14+5r5", "term_counts": [4, 4]},
     "$.parameters.term_counts[1]"),
    ("integer-decomposition", {"total": 10, "term_counts": [3, 2, 2], "divisor_bound": 10},
     "$.parameters.term_counts[2]"),
])
def test_inputs_the_engines_reject_are_rejected_at_load(tmp_path, capsys, kind, params, where):
    doc = make_case(kind=kind, parameters=params)
    assert f"{where}: " in failure_message(doc)
    target = tmp_path / "engine-reject.case.json"
    target.write_text(doc, encoding="utf-8")
    assert main(["validate", str(target)]) == 2
    assert main(["run", str(target)]) == 2
    assert where in capsys.readouterr().err


def test_subcase_keys_are_validated():
    params = {"global_dim": 6, "fixed_codegrees": ["6", "6"], "orbit_degree": 2,
              "decomposition_subcases": [{"n": 2, "target": "3+3r2"}]}
    message = failure_message(make_case(kind="class-equation", parameters=params))
    assert "$.parameters.decomposition_subcases[0].rank_terms: missing required key" in message


def test_load_case_file_reports_unreadable_paths(tmp_path):
    missing = tmp_path / "nope.case.json"
    with pytest.raises(CaseFormatError, match="cannot read"):
        load_case_file(str(missing))


# ---------------------------------------------------------------------------
# running cases and rendering reports


def test_run_case_without_expected_has_no_verdict():
    report = run_case(load_case(make_case()))
    assert report.error is None
    assert report.passed is None
    assert report.results == {"structures": {"49": [2, 3, 7]}}


def test_run_case_checks_expected_values():
    good = load_case(make_case(expected={"structures": {"49": [2, 3, 7]}}))
    assert run_case(good).passed is True
    bad = load_case(make_case(expected={"structures": {"49": [6, 7]}}))
    assert run_case(bad).passed is False


def _kind_case(kind, parameters, expected):
    return load_case(json.dumps({"schema": 1, "name": "c", "kind": kind,
                                 "parameters": parameters, "expected": expected}))


@pytest.mark.parametrize("kind, parameters, key, found, reordered", [
    ("dim-decomposition", {"n": 5, "target": "14+5r5", "term_counts": [5]}, "solutions",
     {"5": [[[1, 1], [1, 1], [1, 1], [3, 1], [2, 2]]]},
     {"5": [[[1, 1], [1, 1], [1, 1], [2, 2], [3, 1]]]}),
    ("integer-decomposition", {"total": 4, "term_counts": [2], "divisor_bound": 4}, "solutions",
     {"2": [[1, 2]]}, {"2": [[2, 1]]}),
    ("class-equation", {"mode": "codegree", "global_dim": 6, "fixed_codegrees": ["6", "6"],
                        "orbit_degree": 2, "product_divides": 36,
                        "decomposition_subcases": [{"n": 5, "target": "14+5r5", "rank_terms": 5}]},
     "decomposition_subcases", [[[[1, 1], [1, 1], [1, 1], [3, 1], [2, 2]]]],
     [[[[1, 1], [1, 1], [1, 1], [2, 2], [3, 1]]]]),
])
def test_expected_solutions_compare_with_the_engine_tuples(kind, parameters, key, found, reordered):
    # results keep the engine's tuples; an expected value from JSON holds lists
    report = run_case(_kind_case(kind, parameters, {key: found}))
    solutions = report.results[key]
    first = next(iter(solutions.values())) if key == "solutions" else solutions[0]["solutions"]
    assert type(first[0]) is tuple
    assert report.passed is True
    assert run_case(_kind_case(kind, parameters, {key: reordered})).passed is False


def test_engine_errors_become_case_failures():
    # load_case rejects this polynomial, so the case is built by hand
    polynomial = IntPolynomial((-6, 11, -6, 1))
    case = Case("bad-membership", "field-membership", {"polynomial": list(polynomial.coeffs),
                                                       "conductor": 9},
                {"polynomial": polynomial, "conductor": 9}, None, (), "<case>")
    report = run_case(case)
    assert report.error == "ValueError: membership test needs an irreducible cubic"
    assert report.passed is False
    assert report.results == {}
    text = render_report(report)
    assert "error: ValueError: membership test needs an irreducible cubic" in text
    assert text.rstrip().endswith("result: ERROR")


def test_payload_omits_wall_time():
    report = run_case(load_case(make_case()))
    payload = report.to_payload()
    assert set(payload) == {"case", "kind", "tool_version", "parameters",
                            "results", "expected", "passed", "error"}
    # a report keeps no timing at all, so no rendering can carry one
    assert not hasattr(report, "wall_time_s")
    assert "time" not in render_report(report) and "time" not in render_report(report, "json")


def test_json_rendering_round_trips():
    report = run_case(load_case(make_case()))
    assert json.loads(render_report(report, "json")) == report.to_payload()
    out = io.StringIO()
    render_reports([report, report], "json", out)
    merged = json.loads(out.getvalue())
    assert merged == {"schema": 1, "reports": [report.to_payload()] * 2}


@pytest.mark.parametrize("fmt, ext, empty", [
    ("text", "txt", ""),
    ("json", "json", '{\n  "reports": [\n  ],\n  "schema": 1\n}\n'),
])
def test_render_reports_takes_any_iterable(fmt, ext, empty):
    out = io.StringIO()
    render_reports(iter(()), fmt, out)
    assert out.getvalue() == empty
    reports = [run_case(load_case_file(p)) for p in bundled_case_paths()]
    out = io.StringIO()
    render_reports((r for r in reports), fmt, out)
    golden = os.path.join(os.path.dirname(__file__), "golden", f"bundled.{ext}")
    with open(golden, "rb") as fh:
        assert out.getvalue().encode() == fh.read()


# str with non-ASCII text, quotes, backslashes, control characters and
# lone surrogates; ints past 2**64 either way
_json_text = (st.text(st.characters(exclude_categories=()), max_size=8)
              | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff",
                                 "é\u2028ß", "\U0001f600"]))
_json_leaf = (st.none() | st.booleans() | _json_text
              | st.integers() | st.integers(min_value=2**64, max_value=2**80).map(lambda v: -v)
              | st.integers(min_value=2**64, max_value=2**80))
# lists of 0/1 next to lists of bools: True == 1, but they render apart
_int_or_bool_lists = st.lists(st.sampled_from([0, 1, True, False]), max_size=3)


def _json_payloads(depth: int):
    if depth == 0:
        return _json_leaf | _int_or_bool_lists
    child = _json_payloads(depth - 1)
    return (_json_leaf | _int_or_bool_lists
            | st.lists(child, max_size=4)
            | st.lists(child, max_size=3).map(tuple)
            | st.dictionaries(_json_text, child, max_size=4))


def _to_json(value) -> str:
    return "".join(_json_pieces(value))


def _nested(value, depth: int):
    """value wrapped depth levels deep, in lists and single-key dicts by turns."""
    for level in range(depth):
        value = [value] if level % 2 else {"k": value}
    return value


def _list_entries(value):
    """The entries of each list that is reached through dicts alone."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _list_entries(item)
    elif isinstance(value, (list, tuple)):
        yield from value


@settings(max_examples=300, deadline=None)
@given(_json_payloads(6))
def test_json_renderer_matches_json_dumps(value):
    out = _to_json(value)
    # canonical bytes rather than ==, which would take True for 1
    assert json.dumps(json.loads(out), sort_keys=True) == json.dumps(value, sort_keys=True)
    lines = {line.strip().removesuffix(",") for line in out.split("\n")}
    for entry in _list_entries(value):
        assert json.dumps(entry, sort_keys=True) in lines


@pytest.mark.parametrize("depth", [0, 7])
@pytest.mark.parametrize("value", [QuadraticFieldElement.parse("14+5r5"), Fraction(1, 2),
                                   {"k": (1, Fraction(1, 2))}, [{"k": [Fraction(1, 2)]}]])
def test_json_renderer_rejects_what_reports_never_hold(value, depth):
    with pytest.raises(TypeError):
        _to_json(_nested(value, depth))


def test_plain_gives_the_report_entry_of_an_engine_record():
    # the writer gives each certificate's entry, survivors first, with each
    # record as _plain gives it
    scan = enumerate_dimension_pairs(DimensionPairInstance(4, (3, 4)))
    verdicts = [verdict for _, verdict in scan]
    entries = list(_scan_entries(scan))
    assert entries == [
        '{"candidate": "x^2-4x+4", "coefficients": [4, -4, 1], "filters": '
        '[{"name": "d-number", "passed": true, "witness": null}, '
        '{"name": "totally-real", "passed": true, "witness": null}], "survived": true}',
        '{"candidate": "x^2-4x+3", "coefficients": [3, -4, 1], "filters": '
        '[{"name": "d-number", "passed": false, "witness": {"failing_index": 1}}], "survived": false}',
    ]
    assert [json.loads(e) for e in entries] == [
        {"candidate": "x^2-4x+4", "coefficients": [4, -4, 1],
         "filters": [_plain(r) for r in verdicts[0]], "survived": True},
        {"candidate": "x^2-4x+3", "coefficients": [3, -4, 1],
         "filters": [_plain(r) for r in verdicts[1]], "survived": False},
    ]
    assert _plain(verdicts[1][-1]) == {
        "name": "d-number", "passed": False, "witness": {"failing_index": 1}}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=2, max_size=3))
def test_a_discriminant_failure_derives_its_witness_from_the_candidate(low):
    # such a failure stores no witness; derived_witness gives it from the
    # coefficients, and the writer's entry, made from the coefficients and
    # the stored record, writes the complete records
    p = IntPolynomial((*low, 1))
    if p.degree == 3:
        verdict = codegree_enum._run_filters(p, (codegree_enum._filter_cyclotomic,))
    else:
        verdict = codegree_enum._run_filters(p.coeffs, (
            codegree_enum._filter_totally_positive,
            lambda coeffs: codegree_enum._filter_required_field(coeffs, 5)))
    last, complete = verdict[-1], verdict
    if not last.passed:
        assert last.witness is None
        witness = {"discriminant": str(poly_discriminant(p))}
        assert codegree_enum.derived_witness(p.coeffs, last) == witness
        complete = verdict[:-1] + (FilterResult(last.name, False, witness),)
    # a scan of the one candidate, stored as a scan stores it
    scan = codegree_enum.ScanResult((((), (low[0],), (*low[1:], 1)),), {last.name: verdict[:-1]}, [last])
    assert list(scan) == [(p.coeffs, verdict)]
    [line] = _scan_entries(scan)
    entry = json.loads(line)
    assert entry["filters"] == [{"name": r.name, "passed": r.passed, "witness": r.witness}
                                for r in complete]
    assert line == json.dumps({"candidate": str(p), "coefficients": list(p.coeffs),
                               "filters": [_plain(r) for r in complete],
                               "survived": last.passed}, sort_keys=True)


@pytest.mark.parametrize("kind, params, solution", [
    # MAX_TERMS squares of (1 + sqrt 5)/2, each (3 + sqrt 5)/2, and
    # MAX_TERMS ones: each target has that one decomposition
    ("dim-decomposition", {"n": 5, "target": f"{3 * MAX_TERMS // 2}+{MAX_TERMS // 2}r5",
                           "term_counts": [MAX_TERMS]}, [[1, 1]] * MAX_TERMS),
    ("integer-decomposition", {"total": MAX_TERMS + 1, "term_counts": [MAX_TERMS],
                               "divisor_bound": 1}, [1] * MAX_TERMS),
])
def test_a_term_count_of_max_terms_runs_to_its_one_solution(kind, params, solution):
    report = run_case(load_case(make_case(kind=kind, parameters=params)))
    assert report.error is None
    assert json.loads(render_report(report, "json"))["results"]["solutions"] == {
        str(MAX_TERMS): [solution]}


SCANS_TO_PICKLE = [
    {"mode": "codegree", "global_dim": 26, "fixed_codegrees": ["26", "26", "26"], "orbit_degree": 3,
     "product_divides": 26**3, "root_lower_bounds": ["13/2", "13", "26"]},
    {"mode": "sum-scan", "global_dim": 10, "product_divides": 2**6 * 5**4, "trace_exceeds": 1,
     "trace_ratio_max": "1", "required_field": 5},
]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_scan_report_renders_the_same_after_a_pickle_round_trip(fmt):
    # under --jobs each report comes back from its worker pickled
    for path in QUADRATIC_CASES + CUBIC_CASES:
        report = run_case(load_case_file(path))
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report
        assert render_report(copy, fmt) == render_report(report, fmt)
    # a scan's copy keeps its family, its prefixes and one deciding record
    # per candidate, and rebuilds the verdicts from them as the original does
    for i, params in enumerate(SCANS_TO_PICKLE):
        doc = {"schema": 1, "name": f"scan-{i}", "kind": "class-equation", "parameters": params}
        report = run_case(load_case(json.dumps(doc)))
        copy = pickle.loads(pickle.dumps(report))
        assert render_report(copy, fmt) == render_report(report, fmt)
        original, copied = report.results["certificates"], copy.results["certificates"]
        assert copied == original
        assert list(copied) == list(original)
        assert len(original) > 10 * len(list(original.survived()))


@pytest.mark.parametrize("value", [Fraction(1, 2), IntPolynomial((1, 1))])
def test_plain_rejects_any_other_object(value):
    with pytest.raises(TypeError, match="is not a report value"):
        _plain(value)
    report = run_case(load_case(make_case()))
    report.results["structures"]["49"].append(value)
    with pytest.raises(TypeError):
        render_report(report, "json")


def test_unknown_format_rejected():
    report = run_case(load_case(make_case()))
    with pytest.raises(ValueError, match="unknown format"):
        render_report(report, "yaml")


def test_text_rendering_for_a_report_without_expected():
    text = render_report(run_case(load_case(make_case())))
    assert text == ("case: galois-smoke (galois-structure)\n"
                    "modulus 49: 2 x 3 x 7\n"
                    "expected: none\n")


def test_bundled_cases_are_sorted_and_complete():
    paths = bundled_case_paths()
    assert len(paths) == 12
    names = [os.path.basename(p) for p in paths]
    assert names == sorted(names)
    assert all(n.endswith(".case.json") for n in names)


# ---------------------------------------------------------------------------
# command line


def dim7_path() -> str:
    return next(p for p in bundled_case_paths() if "dim7" in os.path.basename(p))


def test_cli_requires_cases(capsys):
    assert main(["run"]) == 2
    assert capsys.readouterr().err == "error: no cases given (pass case files or --all)\n"


def test_cli_runs_a_bundled_case(capsys):
    assert main(["run", dim7_path()]) == 0
    captured = capsys.readouterr()
    assert "case: dim7-modular (class-equation)" in captured.out
    assert "admissible products: 49, 343" in captured.out
    assert "x^3-28x^2+196x-343  subfield-exclusion" in captured.out
    assert "survivors: 0" in captured.out
    assert "expected: PASS" in captured.out
    assert captured.err.startswith("1 cases, 0 failed")


def test_cli_flags_a_tampered_expectation(tmp_path, capsys):
    with open(dim7_path(), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["expected"]["survivors"] = ["x^2-1x+1"]
    target = tmp_path / "tampered.case.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(target)]) == 1
    captured = capsys.readouterr()
    assert "expected: FAIL" in captured.out
    assert "1 cases, 1 failed" in captured.err


def test_cli_rejects_malformed_cases(tmp_path, capsys):
    target = tmp_path / "broken.case.json"
    target.write_text(make_case(schema=7), encoding="utf-8")
    assert main(["run", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: broken.case.json: ")
    assert "unsupported schema version 7" in err


def test_cli_unwritable_out_path_exits_2(tmp_path, capsys, monkeypatch):
    # the path is opened once the cases load and before any of them runs
    ran = []
    monkeypatch.setattr(casefile, "run_case", ran.append)
    target = tmp_path / "missing" / "report.txt"
    assert main(["run", dim7_path(), "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()
    assert ran == []


def test_cli_engine_error_exits_nonzero(tmp_path, capsys, monkeypatch):
    # load time rejects the inputs known to break an engine, so the
    # engine is made to fail on a valid case
    def fail(polynomial, conductor):
        raise ValueError("engine failure")
    monkeypatch.setattr(casefile, "in_cyclic_cubic_field", fail)
    doc = make_case(name="bad-membership", kind="field-membership",
                    parameters={"polynomial": [1, -3, 0, 1], "conductor": 9})
    target = tmp_path / "error.case.json"
    target.write_text(doc, encoding="utf-8")
    assert main(["run", str(target)]) == 1
    captured = capsys.readouterr()
    assert "result: ERROR" in captured.out
    assert "1 cases, 1 failed" in captured.err


@pytest.mark.parametrize("bound", ["9/4", "3"])
def test_cli_runs_a_cubic_case_whose_bound_exceeds_every_cube_root(tmp_path, capsys, bound):
    doc = make_case(name="bound-past-cube-roots", kind="class-equation",
                    parameters={"global_dim": 3, "fixed_codegrees": ["3"], "orbit_degree": 3,
                                "product_divides": 27, "root_lower_bounds": [bound],
                                "product_feasibility": "real-roots"})
    target = tmp_path / "bound.case.json"
    target.write_text(doc, encoding="utf-8")
    assert main(["validate", str(target)]) == 0
    capsys.readouterr()
    assert main(["run", str(target), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["reports"][0]["results"]
    assert results["admissible_products"] == []
    assert results["certificate_count"] == 0
    assert main(["run", str(target)]) == 0
    assert capsys.readouterr().out == ("case: bound-past-cube-roots (class-equation)\n"
                                       "admissible products: none\n"
                                       "survivors: 0\n"
                                       "expected: none\n")


def test_cli_out_writes_the_report_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["run", dim7_path(), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert "x^3-28x^2+196x-343  subfield-exclusion" in out.read_text(encoding="utf-8")


def test_cli_writes_each_report_before_the_next_case_runs(tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.txt"
    sizes = []
    real_run_case = casefile.run_case

    def run(case):
        sizes.append(os.path.getsize(out))
        return real_run_case(case)

    monkeypatch.setattr(casefile, "run_case", run)
    assert main(["run", "--all", "--out", str(out)]) == 0
    capsys.readouterr()
    texts = [render_report(real_run_case(load_case_file(p))) for p in bundled_case_paths()]
    assert len(sizes) == len(texts) == 12
    for i in range(1, len(texts)):
        assert sizes[i] >= len("\n".join(texts[:i]).encode())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_failed_write_stops_the_run(capsys, monkeypatch):
    ran = []
    real_run_case = casefile.run_case

    def run(case):
        ran.append(case.name)
        return real_run_case(case)

    monkeypatch.setattr(casefile, "run_case", run)
    assert main(["run", "--all", "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write /dev/full: ")
    assert len(ran) == 1


def test_cli_json_format_covers_all_bundled_cases(capsys):
    assert main(["run", "--all", "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["schema"] == 1
    assert len(body["reports"]) == 12
    assert all(r["passed"] is True for r in body["reports"])
    assert all("wall_time_s" not in r for r in body["reports"])


def test_cli_parallel_run_matches_serial_output(capsys):
    assert main(["run", "--all", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["run", "--all", "--jobs", "3"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial


@pytest.mark.parametrize("cases", [["--all"], QUADRATIC_CASES], ids=["bundled", "quadratic"])
def test_cli_parallel_json_run_matches_serial_output(capsys, cases):
    # the workers send back each scan's family and records, which the
    # parent process renders to JSON entries
    assert main(["run", *cases, "--format", "json", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["run", *cases, "--format", "json", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_cli_rejects_fewer_than_one_worker(tmp_path, capsys, jobs):
    out = tmp_path / "report.txt"
    assert main(["run", "--all", "--jobs", jobs, "--out", str(out)]) == 2
    assert f"error: --jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate(tmp_path, capsys):
    good = dim7_path()
    assert main(["validate", good]) == 0
    assert capsys.readouterr().out == f"{good}: ok (class-equation)\n"
    bad = tmp_path / "broken.case.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["validate", str(bad), good]) == 2
    captured = capsys.readouterr()
    assert f"{good}: ok (class-equation)" in captured.out
    assert "not valid JSON" in captured.err


def test_cli_forks_no_more_workers_than_cases(monkeypatch, capsys):
    import concurrent.futures

    from fusionarith import casefile

    # the pool class is looked up when a parallel run starts, so the
    # serial stand-in below replaces it; a name bound at import time
    # would start real workers instead
    assert not hasattr(casefile, "ProcessPoolExecutor")
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, wait=True, *, cancel_futures=False):
            sizes.append("shutdown")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    two = bundled_case_paths()[:2]
    assert main(["run", *two, "--jobs", "10000"]) == 0
    capsys.readouterr()
    assert sizes == [2, "shutdown"]
