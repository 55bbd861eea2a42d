"""Declarative case files and the fusion-arith command line.

A case file is a small JSON document naming one classification branch:
which engine to run (a codegree scan, a dimension decomposition, an
S-matrix verification, ...), the exact parameters, and optionally the
expected surviving candidates.  Running a case produces a Report whose
text and JSON renderings are byte-deterministic, so a stored report
diffs cleanly against a rerun.

All numbers in case files are exact strings: integers, fractions like
"4/7", or real quadratic scalars like "14+5r5" (14 + 5*sqrt(5)).
Durations are kept off the rendered payload for determinism; the CLI
prints timing to stderr only.

The run command writes reports case by case: each case's report is
rendered, written and flushed before the next case runs, so a run holds
one report at a time.  A scan report holds the engine's ScanResult,
which keeps each candidate's verdict and the survivors' Certificates; a
failure's Certificate is rebuilt, and _plain turns it into its JSON
entry, writing a derived witness into the entry itself, only as that
entry is written.  A text report is written line by line.  A write to
--out that fails stops the run with exit 2.

Every case kind, and every mode of the class-equation kind, is one
entry of the _CASE_KINDS table: its parameter spec, the hook that turns
the parsed parameters into engine inputs, its run function, its text
renderer and its expected keys.  load_case, run_case and render_report
each look the entry up once and know nothing else about the kinds.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Optional, TextIO

from . import __version__
from ._record import record
from .algint import _CUBIC_FIELDS, cyclotomic_galois_structure, in_cyclic_cubic_field
from .codegree_enum import (
    Certificate,
    ClassEquationInstance,
    DimensionPairInstance,
    FilterResult,
    InfeasibleInstanceError,
    QuadraticScanInstance,
    ScanResult,
    admissible_products,
    enumerate_candidates,
    enumerate_dimension_pairs,
    enumerate_quadratic_scan,
    residual_target,
)
from .dimsolve import (
    InfeasibleTargetError,
    QuadraticTarget,
    enumerate_decompositions,
    enumerate_integer_square_decompositions,
    fp_square_constraints,
)
from .exactcore import IntPolynomial, QuadraticFieldElement, rational_roots
from .smatrix import (
    CandidateSMatrix,
    VerlindeReport,
    check_orthogonality,
    dimension_consistency,
    find_galois_permutation,
    formal_codegrees,
    verlinde_fusion,
)

# after the engine modules, whose compiles free memory its objects can reuse
import argparse  # noqa: E402

SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {"schema", "name", "kind", "parameters", "expected", "notes"}


class CaseFormatError(ValueError):
    """Schema violation; the message carries the path to the bad key."""


def _fail(path: str, message: str) -> None:
    raise CaseFormatError(f"{path}: {message}")


def _get_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _get_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _get_int(value: Any, path: str) -> int:
    # bool is an int subclass; reject it explicitly
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _get_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {value!r}")
    return value


def _get_fraction(value: Any, path: str) -> Fraction:
    text = _get_str(value, path)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        _fail(path, f"not an exact rational: {exc}")


def _get_scalar(value: Any, path: str, default_n: Optional[int] = None) -> QuadraticFieldElement:
    text = _get_str(value, path)
    try:
        return QuadraticFieldElement.parse(text, default_n=default_n)
    except (ValueError, ZeroDivisionError) as exc:
        _fail(path, f"not an exact scalar: {exc}")


def _get_int_pair(value: Any, path: str) -> tuple[int, int]:
    pair = _get_list(value, path)
    if len(pair) != 2:
        _fail(path, f"expected a pair, got {len(pair)} entries")
    return (_get_int(pair[0], f"{path}[0]"), _get_int(pair[1], f"{path}[1]"))


# no result nests more than 4 levels deep, so a deeper expected value can
# never match; rejecting it at load also keeps rendering from recursing on it
_EXPECTED_MAX_DEPTH = 4


def _check_exact(value: Any, path: str, depth: int = 0) -> None:
    # reports hold exact values only, so an expected value may not hold a float
    if isinstance(value, float):
        _fail(path, f"expected an exact value, got {value!r}")
    if isinstance(value, (dict, list)) and depth == _EXPECTED_MAX_DEPTH:
        _fail(path, f"nested more than {_EXPECTED_MAX_DEPTH} levels deep")
    for key, item in (value.items() if isinstance(value, dict)
                      else enumerate(value) if isinstance(value, list) else ()):
        _check_exact(item, f"{path}.{key}" if isinstance(value, dict) else f"{path}[{key}]", depth + 1)


def _list_of(getter: Callable[[Any, str], Any]) -> Callable[[Any, str], tuple]:
    def get(value: Any, path: str) -> tuple:
        return tuple(getter(v, f"{path}[{i}]") for i, v in enumerate(_get_list(value, path)))
    return get


def _int_range(lo: int, hi: Optional[int] = None) -> Callable[[Any, str], int]:
    """Getter for an integer in lo..hi, with no upper end when hi is None."""
    def get(value: Any, path: str) -> int:
        v = _get_int(value, path)
        if hi is None and v < lo:
            _fail(path, f"must be >= {lo}, got {v}")
        if hi is not None and not lo <= v <= hi:
            _fail(path, f"must be in {lo}..{hi}, got {v}")
        return v
    return get


def _get_conductor(value: Any, path: str) -> int:
    conductor = _get_int(value, path)
    if conductor not in _CUBIC_FIELDS:
        supported = ", ".join(str(c) for c in sorted(_CUBIC_FIELDS))
        _fail(path, f"unsupported conductor {conductor}; supported: {supported}")
    return conductor


def _get_irreducible_cubic(value: Any, path: str) -> IntPolynomial:
    p = IntPolynomial(_list_of(_get_int)(value, path))
    if p.degree != 3 or rational_roots(p):
        _fail(path, f"membership test needs an irreducible cubic, got {p}")
    return p


def _get_excluded_pair(value: Any, path: str) -> tuple[int, int]:
    d, modulus = _get_int_pair(value, path)
    return d, _int_range(1)(modulus, f"{path}[1]")


def _integral_target(path: str, **values) -> QuadraticTarget:
    target = QuadraticTarget(**values)
    try:
        fp_square_constraints(target)
    except InfeasibleTargetError as exc:
        _fail(f"{path}.target", str(exc))
    return target


def _get_matrix_kind(value: Any, path: str) -> str:
    matrix_kind = _get_str(value, path)
    if matrix_kind not in ("modular", "super-modular-hat"):
        _fail(path, f"unknown matrix kind {matrix_kind!r}")
    return matrix_kind


def _get_term_counts(value: Any, path: str, total: int) -> tuple[int, ...]:
    counts = _list_of(_get_int)(value, path)
    for i, count in enumerate(counts):
        if not total >= count >= 1:
            _fail(f"{path}[{i}]", f"need total >= term_count >= 1, got {total}, {count}")
    return counts


def _check_keys(obj: dict, allowed, required, path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            _fail(f"{path}.{key}", "missing required key")


# A spec maps each key to (getter, required, *earlier keys): the getter
# is called with the raw value, its JSON path and the parsed values of
# the earlier keys it names.
Spec = dict[str, tuple]


def _build(spec: Spec, build: Callable[[dict, str], Any], params: dict, path: str) -> Any:
    """Check params against spec, parse the present keys in spec order,
    then build; a ValueError from the build is reported at path."""
    _check_keys(params, spec, [key for key, (_, required, *_) in spec.items() if required], path)
    values = {}
    for key, (getter, _, *reads) in spec.items():
        if key in params:
            values[key] = getter(params[key], f"{path}.{key}", *(values[k] for k in reads))
    try:
        return build(values, path)
    except CaseFormatError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))


@record
class Case:
    """A loaded, validated case: raw parameters for echoing plus the
    prepared engine inputs in payload."""

    name: str
    kind: str
    parameters: dict
    payload: dict
    expected: Optional[dict]
    notes: tuple[str, ...]
    source: str


@record
class Report:
    """Outcome of one case run; it holds no timing, so rendered output
    is byte-identical across runs."""

    case_name: str
    kind: str
    tool_version: str
    parameters: dict
    results: dict
    expected: Optional[dict]
    passed: Optional[bool]
    error: Optional[str]

    def to_payload(self) -> dict:
        return {
            "case": self.case_name,
            "kind": self.kind,
            "tool_version": self.tool_version,
            "parameters": self.parameters,
            "results": self.results,
            "expected": self.expected,
            "passed": self.passed,
            "error": self.error,
        }


# ---------------------------------------------------------------------------
# the case-kind table


class _CaseKind:
    """One case kind, or one mode of the class-equation kind.

    load_case checks the parameters against spec and passes the parsed
    values to build, which returns the payload that run takes.  run
    calls the engines through this module's names, so tracing that
    rebinds those names still sees each call.  render gives the text
    lines of a report's results; a scan's and a search's are yielded one
    at a time.  An expected key in extract is compared with
    extract[key](results), any other with results.get(key).
    """

    spec: Spec = {}
    expected: frozenset[str] = frozenset()
    extract: dict[str, Callable[[dict], Any]] = {}

    def build(self, values: dict, path: str) -> dict:
        return values


def _solutions(found) -> list:
    """Each decomposition's terms, whose pairs are the search table's own."""
    return [dec.terms for dec in found]


def _listed(solutions) -> list:
    """Solutions as lists, the shape an expected value from JSON has."""
    return [[list(t) if isinstance(t, tuple) else t for t in sol] for sol in solutions]


class _ClassEquation(_CaseKind):
    """The class-equation modes; each sets mode, its instance class and run."""

    expected = frozenset({"admissible_products", "certificate_count", "survivors",
                          "decomposition_subcases"})
    extract = {"decomposition_subcases": lambda results: [
        _listed(sc["solutions"]) for sc in results.get("decomposition_subcases", [])]}

    def build(self, values: dict, path: str) -> dict:
        values.pop("mode", None)
        return {"instance": self.instance(**values)}

    def scan_results(self, certs: ScanResult) -> dict:
        survivors = [str(c.candidate) for c in certs.survivors]
        return {
            "mode": self.mode,
            "certificates": certs,
            "certificate_count": len(certs),
            "survivors": survivors,
            "survivor_count": len(survivors),
        }

    def render(self, results: dict) -> Iterable[str]:
        head, tail = [], []
        if "admissible_products" in results:
            head.append("admissible products: "
                        + (", ".join(str(p) for p in results["admissible_products"]) or "none"))
        for sub in results.get("decomposition_subcases", ()):
            tail.append(f"subcase target={sub['target']} terms={sub['rank_terms']}: "
                        f"{len(sub['solutions'])} solutions")
        tail.append(f"survivors: {results['survivor_count']}")
        # certificate lines are made as they are written; written as a
        # generator function, this method raised the CLI's peak RSS by about
        # 0.15 MiB at import (CPython 3.11.7, x86-64 Linux)
        certs = (f"{cert.candidate}  {cert.failed_filter or 'SURVIVES'}"
                 for cert in results["certificates"])
        return itertools.chain(head, certs, tail)


def _get_subcase(value: Any, path: str) -> QuadraticTarget:
    spec = {"n": (_get_int, True), "target": (_get_scalar, True, "n"),
            "rank_terms": (_get_int, True)}
    return _build(spec, lambda values, _: _integral_target(path, **values),
                  _get_object(value, path), path)


class _Codegree(_ClassEquation):
    mode = "codegree"
    instance = ClassEquationInstance
    spec = {
        "mode": (_get_str, False),
        "global_dim": (_get_int, True),
        "fixed_codegrees": (_list_of(_get_fraction), True),
        "orbit_degree": (_int_range(1, 3), True),
        "product_divides": (_get_int, False),
        "root_lower_bounds": (_list_of(_get_fraction), False),
        "product_feasibility": (_get_str, False),
        "membership_conductor": (_get_conductor, False),
        "excluded_quadratic_subfields": (_list_of(_get_excluded_pair), False),
        "decomposition_subcases": (_list_of(_get_subcase), False),
    }

    def build(self, values: dict, path: str) -> dict:
        subcases = values.pop("decomposition_subcases", None)
        payload = super().build(values, path)
        try:
            residual_target(payload["instance"])
        except InfeasibleInstanceError as exc:
            _fail(f"{path}.fixed_codegrees", str(exc))
        if subcases is not None:
            payload["subcases"] = subcases
        return payload

    def run(self, payload: dict) -> dict:
        instance = payload["instance"]
        products = admissible_products(instance)
        results = self.scan_results(enumerate_candidates(instance))
        results["admissible_products"] = products
        if "subcases" in payload:
            results["decomposition_subcases"] = [
                {"n": target.n, "target": str(target.target), "rank_terms": target.rank_terms,
                 "solutions": _solutions(enumerate_decompositions(target))}
                for target in payload["subcases"]
            ]
        return results


class _SumScan(_ClassEquation):
    mode = "sum-scan"
    instance = QuadraticScanInstance
    spec = {
        "mode": (_get_str, False),
        "global_dim": (_get_int, True),
        "product_divides": (_get_int, True),
        "trace_exceeds": (_get_int, True),
        "trace_ratio_max": (_get_fraction, True),
        "required_field": (_get_int, True),
        "dim_square_mode": (_get_str, False),
        "cyclotomic_modulus": (_int_range(1), False),
    }

    def run(self, payload: dict) -> dict:
        return self.scan_results(enumerate_quadratic_scan(payload["instance"]))


class _DimensionPair(_ClassEquation):
    mode = "dimension-pair"
    instance = DimensionPairInstance
    spec = {"mode": (_get_str, False), "trace": (_get_int, True),
            "constant_range": (_get_int_pair, True)}

    def run(self, payload: dict) -> dict:
        return self.scan_results(enumerate_dimension_pairs(payload["instance"]))


class _Decomposition(_CaseKind):
    """Both decomposition kinds: solutions listed per term count, each the
    engine's own tuple and written as text by its kind's line."""

    expected = frozenset({"solutions"})
    extract = {"solutions": lambda results: {
        count: _listed(found) for count, found in results["solutions"].items()}}

    def run(self, payload: dict) -> dict:
        found = self.solve(payload)
        return {"solutions": {str(count): solutions for count, solutions in found},
                "survivor_count": sum(len(solutions) for _, solutions in found)}

    def render(self, results: dict) -> Iterator[str]:
        for count, found in results["solutions"].items():
            yield f"terms={count}: {len(found)} solutions"
            for sol in found:
                yield f"  {self.line(sol)}"
        yield f"survivors: {results['survivor_count']}"


class _DimDecomposition(_Decomposition):
    spec = {"n": (_get_int, True), "target": (_get_scalar, True, "n"),
            "term_counts": (_list_of(_get_int), True)}

    @staticmethod
    def line(sol: tuple) -> str:
        return " ".join(f"({a},{b})" for a, b in sol)

    def build(self, values: dict, path: str) -> dict:
        return {"targets": tuple(
            _integral_target(path, n=values["n"], target=values["target"], rank_terms=count)
            for count in values["term_counts"])}

    def solve(self, payload: dict) -> list:
        return [(target.rank_terms, _solutions(enumerate_decompositions(target)))
                for target in payload["targets"]]


class _IntegerDecomposition(_Decomposition):
    spec = {"total": (_int_range(1), True),
            "term_counts": (_get_term_counts, True, "total"),
            "divisor_bound": (_int_range(1), True)}

    @staticmethod
    def line(sol: tuple) -> str:
        return " ".join(str(v) for v in sol)

    def solve(self, payload: dict) -> list:
        return [(count, enumerate_integer_square_decompositions(
                    payload["total"], count, payload["divisor_bound"]))
                for count in payload["term_counts"]]


class _SmatrixVerify(_CaseKind):
    spec = {"n": (_get_int, True), "kind": (_get_matrix_kind, True),
            "declared_dim": (_get_scalar, True, "n"), "unit_index": (_get_int, False),
            "entries": (_list_of(_list_of(_get_int_pair)), True)}
    expected = frozenset({"orthogonal", "dimension_consistent", "formal_codegrees",
                          "verlinde_nonnegative_integral", "galois_found",
                          "galois_permutation", "galois_unit_image_dim_square_is_one"})

    def build(self, values: dict, path: str) -> dict:
        rows, unit = values["entries"], values.get("unit_index", 0)
        declared, n = values["declared_dim"], values["n"]
        if not declared.is_rational and declared.n != n:
            _fail(f"{path}.declared_dim", f"mixed field generators: sqrt({declared.n}) vs sqrt({n})")
        if rows:  # an empty matrix is the constructor's to reject
            if not 0 <= unit < len(rows):
                _fail(f"{path}.unit_index", f"must be in 0..{len(rows) - 1}, got {unit}")
            # before construction, so the error names the zero entry
            for w, pair in enumerate(rows[unit]):
                if pair == (0, 0):
                    _fail(f"{path}.entries[{unit}][{w}]", f"dimension column {w} is zero")
        try:
            return {"matrix": CandidateSMatrix(rows, n, declared, unit, values["kind"])}
        except ValueError as exc:
            _fail(f"{path}.entries", str(exc))

    def run(self, payload: dict) -> dict:
        matrix = payload["matrix"]
        orth = check_orthogonality(matrix)
        results: dict[str, Any] = {
            "orthogonal": orth.passes,
            "orthogonality_violation": list(orth.violating_pair) if orth.violating_pair else None,
            "dimension_consistent": dimension_consistency(matrix),
            "formal_codegrees": [str(f) for f in formal_codegrees(matrix)],
        }
        # with no orthogonality there is no tensor, and no violation to name
        verlinde = verlinde_fusion(matrix, orth) if orth.passes else VerlindeReport()
        results["verlinde_nonnegative_integral"] = verlinde.nonnegative_integral
        results["verlinde_first_violation"] = (
            list(verlinde.first_violation) if verlinde.first_violation else None)
        galois = find_galois_permutation(matrix)
        results["galois_found"] = galois.found
        results["galois_permutation"] = list(galois.mapping) if galois.found else None
        results["galois_unit_image"] = galois.unit_image
        results["galois_unit_image_dim_square_is_one"] = galois.unit_image_dim_square_is_one
        if not galois.found:
            results["galois_absence_reason"] = galois.reason
        return results

    def render(self, results: dict) -> list[str]:
        lines = [f"{key}: {'PASS' if results.get(key) else 'FAIL'}"
                 for key in ("orthogonal", "dimension_consistent",
                             "verlinde_nonnegative_integral", "galois_found",
                             "galois_unit_image_dim_square_is_one")]
        lines.append("formal codegrees: " + ", ".join(results["formal_codegrees"]))
        if results.get("galois_permutation") is not None:
            lines.append("galois permutation: "
                         + " ".join(str(v) for v in results["galois_permutation"]))
        return lines


class _FieldMembership(_CaseKind):
    spec = {"polynomial": (_get_irreducible_cubic, True), "conductor": (_get_conductor, True)}
    expected = frozenset({"member"})

    def run(self, payload: dict) -> dict:
        member = in_cyclic_cubic_field(payload["polynomial"], payload["conductor"])
        return {"polynomial": str(payload["polynomial"]),
                "conductor": payload["conductor"],
                "member": member}

    def render(self, results: dict) -> list[str]:
        return [f"{results['polynomial']}  "
                f"{'MEMBER' if results['member'] else 'NOT-MEMBER'} "
                f"(conductor {results['conductor']})"]


class _GaloisStructure(_CaseKind):
    spec = {"moduli": (_list_of(_int_range(3)), True)}
    expected = frozenset({"structures"})

    def run(self, payload: dict) -> dict:
        return {"structures": {
            str(modulus): list(cyclotomic_galois_structure(modulus))
            for modulus in payload["moduli"]
        }}

    def render(self, results: dict) -> list[str]:
        return [f"modulus {modulus}: " + " x ".join(str(v) for v in orders)
                for modulus, orders in results["structures"].items()]


# class-equation picks its entry by the mode parameter
_CASE_KINDS: dict[str, Any] = {
    "class-equation": {m.mode: m for m in (_Codegree(), _SumScan(), _DimensionPair())},
    "dim-decomposition": _DimDecomposition(),
    "integer-decomposition": _IntegerDecomposition(),
    "smatrix-verify": _SmatrixVerify(),
    "field-membership": _FieldMembership(),
    "galois-structure": _GaloisStructure(),
}


def _case_kind(kind: str, params: dict) -> _CaseKind:
    """The table entry of a case; class-equation picks it by mode."""
    entry = _CASE_KINDS[kind]
    if isinstance(entry, dict):
        mode = params.get("mode", "codegree")
        if not isinstance(mode, str) or mode not in entry:
            _fail("$.parameters.mode", f"unknown mode {mode!r}")
        entry = entry[mode]
    return entry


def load_case(data: bytes | str, source: str = "<case>") -> Case:
    """Parse and validate one case document.

    Raises CaseFormatError on any schema problem; the message starts
    with the source label and the JSON path of the offending key.
    """
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8 and integers too long to convert
        raise CaseFormatError(f"{source}: not valid JSON: {exc}") from exc
    try:
        obj = _get_object(doc, "$")
        _check_keys(obj, _TOP_LEVEL_KEYS, ("schema", "name", "kind", "parameters"), "$")
        schema = _get_int(obj["schema"], "$.schema")
        if schema != SCHEMA_VERSION:
            _fail("$.schema", f"unsupported schema version {schema}")
        name = _get_str(obj["name"], "$.name")
        if not name:
            _fail("$.name", "name must be nonempty")
        kind = _get_str(obj["kind"], "$.kind")
        if kind not in _CASE_KINDS:
            _fail("$.kind", f"unknown kind {kind!r}")
        parameters = _get_object(obj["parameters"], "$.parameters")
        entry = _case_kind(kind, parameters)
        payload = _build(entry.spec, entry.build, parameters, "$.parameters")
        expected = None
        if "expected" in obj:
            expected = _get_object(obj["expected"], "$.expected")
            for key in expected:
                if key not in entry.expected:
                    _fail(f"$.expected.{key}", "unknown key")
                _check_exact(expected[key], f"$.expected.{key}")
        notes = ()
        if "notes" in obj:
            notes = tuple(_get_str(v, f"$.notes[{i}]")
                          for i, v in enumerate(_get_list(obj["notes"], "$.notes")))
    except CaseFormatError as exc:
        raise CaseFormatError(f"{source}: {exc}") from None
    return Case(name, kind, parameters, payload, expected, notes, source)


def load_case_file(path: str) -> Case:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CaseFormatError(f"{path}: cannot read: {exc}") from exc
    return load_case(data, source=os.path.basename(path))


def run_case(case: Case) -> Report:
    """Dispatch one case; engine exceptions become case-level failures."""
    try:
        entry = _case_kind(case.kind, case.parameters)
        results = entry.run(case.payload)
        error = None
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        results = {}
        error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        passed: Optional[bool] = False
    elif case.expected is not None:
        actual = {key: entry.extract[key](results) if key in entry.extract else results.get(key)
                  for key in case.expected}
        passed = actual == case.expected
    else:
        passed = None
    return Report(
        case_name=case.name,
        kind=case.kind,
        tool_version=__version__,
        parameters=case.parameters,
        results=results,
        expected=case.expected,
        passed=passed,
        error=error,
    )


def _plain(obj: Any) -> dict:
    """The report entry of an engine record; the one home of the
    certificate layout."""
    if isinstance(obj, Certificate):
        witness = obj.derived_witness
        return {"candidate": str(obj.candidate), "coefficients": obj.candidate.coeffs,
                "filters": obj.verdict if witness is None else obj.verdict[:-1] + (
                    {"name": obj.verdict[-1].name, "passed": False, "witness": witness},),
                "survived": obj.survived}
    if isinstance(obj, FilterResult):
        return {"name": obj.name, "passed": obj.passed, "witness": obj.witness}
    if isinstance(obj, ScanResult):
        return list(obj)
    raise TypeError(f"{type(obj).__name__} is not a report value")


_encode = json.JSONEncoder(sort_keys=True, default=_plain).encode


def _json_pieces(value: Any, indent: str = "") -> Iterator[str]:
    """value as sorted JSON with each dict outside a list indented, one
    key per line, and each entry of a list on one line of _encode; the
    pieces end at those lines, so a large list is never one string."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        sep = "{\n"
        for k in sorted(value):
            yield f"{sep}{inner}{_encode(k)}: "
            yield from _json_pieces(value[k], inner)
            sep = ",\n"
        yield f"\n{indent}}}"
    elif isinstance(value, (list, tuple, ScanResult)) and value:
        sep = "[\n"
        for v in value:
            yield sep + inner + _encode(v)
            sep = ",\n"
        yield f"\n{indent}]"
    else:
        yield _encode(value)


def _text_pieces(report: Report) -> Iterator[str]:
    """The text report, one line per piece, as the case kind yields them."""
    yield f"case: {report.case_name} ({report.kind})\n"
    if report.error is not None:
        yield f"error: {report.error}\nresult: ERROR\n"
        return
    for line in _case_kind(report.kind, report.parameters).render(report.results):
        yield line + "\n"
    yield "expected: none\n" if report.passed is None else \
        f"expected: {'PASS' if report.passed else 'FAIL'}\n"


def render_report(report: Report, format: str = "text") -> str:
    """One report as deterministic text or JSON."""
    if format == "json":
        return "".join(_json_pieces(report.to_payload())) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    return "".join(_text_pieces(report))


def render_reports(reports: Iterable[Report], format: str, out: TextIO) -> None:
    """All reports, merged in input order, written to out as one
    deterministic document.

    reports is drawn one at a time; each report is written in pieces,
    flushed and released before the next is drawn, so a lazy iterable
    that runs the cases holds one report, and no rendered copy of it, in
    memory at a time.
    """
    if format == "json":
        out.write('{\n  "reports": [')
        sep = "\n    "
        for report in reports:
            out.write(sep)
            out.writelines(_json_pieces(report.to_payload(), "    "))
            out.flush()
            sep = ",\n    "
            del report
        out.write(f'\n  ],\n  "schema": {SCHEMA_VERSION}\n}}\n')
        return
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    sep = ""
    for report in reports:
        out.write(sep)
        out.writelines(_text_pieces(report))
        out.flush()
        sep = "\n"
        del report


def bundled_case_paths() -> list[str]:
    """Absolute paths of the case files shipped inside the package."""
    from importlib import resources  # here, as it loads pathlib and tempfile
    root = resources.files("fusionarith").joinpath("cases")
    paths = [str(entry) for entry in root.iterdir()
             if entry.name.endswith(".case.json")]
    return sorted(paths, key=os.path.basename)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _run_command(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    paths = list(args.cases)
    if args.all:
        paths.extend(bundled_case_paths())
    if not paths:
        print("error: no cases given (pass case files or --all)", file=sys.stderr)
        return 2
    try:
        cases = [load_case_file(p) for p in paths]
    except CaseFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # opened before any case runs, so a bad path costs no run
        target = (open(args.out, "w", encoding="utf-8") if args.out
                  else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        return _cannot_write(args.out, exc)
    failed = 0

    def tally(report: Report) -> Report:
        nonlocal failed
        failed += report.passed is False
        return report

    start = time.monotonic()
    pool = None
    if args.jobs > 1 and len(cases) > 1:
        # imported here: the process pool costs start-up time that a
        # serial run does not need; a pool forks all its workers up
        # front, so it gets no more workers than there are cases
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(args.jobs, len(cases)))
        reports = pool.map(run_case, cases)
    else:
        reports = map(run_case, cases)
    try:
        with target as fh:
            render_reports(map(tally, reports), args.format, fh)
    except OSError as exc:
        if not args.out:
            raise
        return _cannot_write(args.out, exc)
    finally:
        if pool is not None:
            # after a failed write, the cases not yet started never run
            pool.shutdown(cancel_futures=True)
    elapsed = time.monotonic() - start
    print(f"{len(cases)} cases, {failed} failed, {elapsed:.2f}s", file=sys.stderr)
    return 1 if failed else 0


def _validate_command(args: argparse.Namespace) -> int:
    status = 0
    for path in args.cases:
        try:
            case = load_case_file(path)
        except CaseFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        print(f"{path}: ok ({case.kind})")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusion-arith",
        description="Run exact-arithmetic classification case files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run case files and render reports")
    run_p.add_argument("cases", nargs="*", help="case file paths")
    run_p.add_argument("--all", action="store_true", help="include bundled cases")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--out", help="write the report here instead of stdout")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="parallel case workers, at least 1 (default 1)")
    run_p.set_defaults(func=_run_command)
    val_p = sub.add_parser("validate", help="check case files against the schema")
    val_p.add_argument("cases", nargs="+", help="case file paths")
    val_p.set_defaults(func=_validate_command)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
