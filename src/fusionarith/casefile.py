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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Any, Optional

from . import __version__
from .algint import cyclotomic_galois_structure, in_cyclic_cubic_field
from .codegree_enum import (
    Certificate,
    ClassEquationInstance,
    DimensionPairInstance,
    QuadraticScanInstance,
    admissible_products,
    enumerate_candidates,
    enumerate_dimension_pairs,
    enumerate_quadratic_scan,
)
from .dimsolve import (
    QuadraticTarget,
    enumerate_decompositions,
    enumerate_integer_square_decompositions,
)
from .exactcore import IntPolynomial, QuadraticFieldElement
from .smatrix import (
    CandidateSMatrix,
    check_orthogonality,
    dimension_consistency,
    find_galois_permutation,
    formal_codegrees,
    verlinde_fusion,
)

SCHEMA_VERSION = 1

KINDS = (
    "class-equation",
    "dim-decomposition",
    "integer-decomposition",
    "smatrix-verify",
    "field-membership",
    "galois-structure",
)

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


def _get_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {value!r}")
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


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            _fail(f"{path}.{key}", "missing required key")


@dataclass(frozen=True)
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


def _prepare_subcases(raw: Any, path: str) -> tuple[QuadraticTarget, ...]:
    subcases = []
    for i, entry in enumerate(_get_list(raw, path)):
        sub_path = f"{path}[{i}]"
        obj = _get_object(entry, sub_path)
        _check_keys(obj, {"n", "target", "rank_terms"}, {"n", "target", "rank_terms"}, sub_path)
        n = _get_int(obj["n"], f"{sub_path}.n")
        try:
            subcases.append(QuadraticTarget(
                n=n,
                target=_get_scalar(obj["target"], f"{sub_path}.target", default_n=n),
                rank_terms=_get_int(obj["rank_terms"], f"{sub_path}.rank_terms"),
            ))
        except ValueError as exc:
            if isinstance(exc, CaseFormatError):
                raise
            _fail(sub_path, str(exc))
    return tuple(subcases)


def _prepare_class_equation(params: dict, path: str) -> dict:
    mode = params.get("mode", "codegree")
    if mode == "codegree":
        allowed = {"mode", "global_dim", "fixed_codegrees", "orbit_degree",
                   "product_divides", "root_lower_bounds", "product_feasibility",
                   "membership_conductor", "excluded_quadratic_subfields",
                   "scan_range", "decomposition_subcases"}
        _check_keys(params, allowed, {"global_dim", "fixed_codegrees", "orbit_degree"}, path)
        kwargs: dict[str, Any] = {
            "global_dim": _get_int(params["global_dim"], f"{path}.global_dim"),
            "fixed_codegrees": tuple(
                _get_fraction(v, f"{path}.fixed_codegrees[{i}]")
                for i, v in enumerate(_get_list(params["fixed_codegrees"], f"{path}.fixed_codegrees"))
            ),
            "orbit_degree": _get_int(params["orbit_degree"], f"{path}.orbit_degree"),
        }
        if "product_divides" in params:
            kwargs["product_divides"] = _get_int(params["product_divides"], f"{path}.product_divides")
        if "root_lower_bounds" in params:
            kwargs["root_lower_bounds"] = tuple(
                _get_fraction(v, f"{path}.root_lower_bounds[{i}]")
                for i, v in enumerate(_get_list(params["root_lower_bounds"], f"{path}.root_lower_bounds"))
            )
        if "product_feasibility" in params:
            kwargs["product_feasibility"] = _get_str(params["product_feasibility"], f"{path}.product_feasibility")
        if "membership_conductor" in params:
            kwargs["membership_conductor"] = _get_int(params["membership_conductor"], f"{path}.membership_conductor")
        if "excluded_quadratic_subfields" in params:
            kwargs["excluded_quadratic_subfields"] = tuple(
                _get_int_pair(v, f"{path}.excluded_quadratic_subfields[{i}]")
                for i, v in enumerate(_get_list(params["excluded_quadratic_subfields"],
                                                f"{path}.excluded_quadratic_subfields"))
            )
        if "scan_range" in params:
            kwargs["scan_range"] = _get_int_pair(params["scan_range"], f"{path}.scan_range")
        try:
            instance = ClassEquationInstance(**kwargs)
        except ValueError as exc:
            _fail(path, str(exc))
        payload = {"mode": mode, "instance": instance}
        if "decomposition_subcases" in params:
            payload["subcases"] = _prepare_subcases(
                params["decomposition_subcases"], f"{path}.decomposition_subcases")
        return payload
    if mode == "sum-scan":
        allowed = {"mode", "global_dim", "product_divides", "trace_exceeds",
                   "trace_ratio_max", "required_field", "dim_square_mode",
                   "cyclotomic_modulus"}
        required = {"global_dim", "product_divides", "trace_exceeds",
                    "trace_ratio_max", "required_field"}
        _check_keys(params, allowed, required, path)
        kwargs = {
            "global_dim": _get_int(params["global_dim"], f"{path}.global_dim"),
            "product_divides": _get_int(params["product_divides"], f"{path}.product_divides"),
            "trace_exceeds": _get_int(params["trace_exceeds"], f"{path}.trace_exceeds"),
            "trace_ratio_max": _get_fraction(params["trace_ratio_max"], f"{path}.trace_ratio_max"),
            "required_field": _get_int(params["required_field"], f"{path}.required_field"),
        }
        if "dim_square_mode" in params:
            kwargs["dim_square_mode"] = _get_str(params["dim_square_mode"], f"{path}.dim_square_mode")
        if "cyclotomic_modulus" in params:
            kwargs["cyclotomic_modulus"] = _get_int(params["cyclotomic_modulus"], f"{path}.cyclotomic_modulus")
        try:
            return {"mode": mode, "instance": QuadraticScanInstance(**kwargs)}
        except ValueError as exc:
            _fail(path, str(exc))
    if mode == "dimension-pair":
        _check_keys(params, {"mode", "trace", "constant_range"}, {"trace", "constant_range"}, path)
        try:
            return {"mode": mode, "instance": DimensionPairInstance(
                trace=_get_int(params["trace"], f"{path}.trace"),
                constant_range=_get_int_pair(params["constant_range"], f"{path}.constant_range"),
            )}
        except ValueError as exc:
            if isinstance(exc, CaseFormatError):
                raise
            _fail(path, str(exc))
    _fail(f"{path}.mode", f"unknown mode {mode!r}")


def _prepare_parameters(kind: str, params: dict, path: str) -> dict:
    if kind == "class-equation":
        return _prepare_class_equation(params, path)
    if kind == "dim-decomposition":
        allowed = {"n", "target", "term_counts", "require_algebraic_integer"}
        _check_keys(params, allowed, {"n", "target", "term_counts"}, path)
        n = _get_int(params["n"], f"{path}.n")
        target = _get_scalar(params["target"], f"{path}.target", default_n=n)
        counts = [_get_int(v, f"{path}.term_counts[{i}]")
                  for i, v in enumerate(_get_list(params["term_counts"], f"{path}.term_counts"))]
        require = params.get("require_algebraic_integer", True)
        if "require_algebraic_integer" in params:
            require = _get_bool(require, f"{path}.require_algebraic_integer")
        try:
            targets = tuple(
                QuadraticTarget(n=n, target=target, rank_terms=c,
                                require_algebraic_integer=require)
                for c in counts
            )
        except ValueError as exc:
            _fail(path, str(exc))
        return {"targets": targets, "term_counts": tuple(counts)}
    if kind == "integer-decomposition":
        allowed = {"total", "term_counts", "divisor_bound"}
        _check_keys(params, allowed, allowed, path)
        total = _get_int(params["total"], f"{path}.total")
        if total < 1:
            _fail(f"{path}.total", f"must be >= 1, got {total}")
        counts = [_get_int(v, f"{path}.term_counts[{i}]")
                  for i, v in enumerate(_get_list(params["term_counts"], f"{path}.term_counts"))]
        for i, count in enumerate(counts):
            if not total >= count >= 1:
                _fail(f"{path}.term_counts[{i}]", f"need total >= term_count >= 1, got {total}, {count}")
        divisor_bound = _get_int(params["divisor_bound"], f"{path}.divisor_bound")
        if divisor_bound < 1:
            _fail(f"{path}.divisor_bound", f"must be >= 1, got {divisor_bound}")
        return {"total": total, "term_counts": tuple(counts), "divisor_bound": divisor_bound}
    if kind == "smatrix-verify":
        allowed = {"n", "kind", "declared_dim", "unit_index", "entries"}
        _check_keys(params, allowed, {"n", "kind", "declared_dim", "entries"}, path)
        n = _get_int(params["n"], f"{path}.n")
        matrix_kind = _get_str(params["kind"], f"{path}.kind")
        if matrix_kind not in ("modular", "super-modular-hat"):
            _fail(f"{path}.kind", f"unknown matrix kind {matrix_kind!r}")
        declared = _get_scalar(params["declared_dim"], f"{path}.declared_dim", default_n=n)
        unit_index = 0
        if "unit_index" in params:
            unit_index = _get_int(params["unit_index"], f"{path}.unit_index")
        rows = []
        for i, raw_row in enumerate(_get_list(params["entries"], f"{path}.entries")):
            row = [
                _get_int_pair(v, f"{path}.entries[{i}][{j}]")
                for j, v in enumerate(_get_list(raw_row, f"{path}.entries[{i}]"))
            ]
            rows.append([(a, b) for a, b in row])
        try:
            matrix = CandidateSMatrix.from_half_pairs(
                rows, n, declared, unit_index=unit_index, kind=matrix_kind)
        except ValueError as exc:
            _fail(f"{path}.entries", str(exc))
        for w, (a, b) in enumerate(rows[unit_index]):
            if a == b == 0:
                _fail(f"{path}.entries[{unit_index}][{w}]", f"dimension column {w} is zero")
        return {"matrix": matrix}
    if kind == "field-membership":
        allowed = {"polynomial", "conductor"}
        _check_keys(params, allowed, allowed, path)
        coeffs = tuple(
            _get_int(v, f"{path}.polynomial[{i}]")
            for i, v in enumerate(_get_list(params["polynomial"], f"{path}.polynomial"))
        )
        try:
            poly = IntPolynomial(coeffs)
        except ValueError as exc:
            _fail(f"{path}.polynomial", str(exc))
        return {"polynomial": poly,
                "conductor": _get_int(params["conductor"], f"{path}.conductor")}
    # galois-structure
    allowed = {"moduli"}
    _check_keys(params, allowed, allowed, path)
    moduli = tuple(
        _get_int(v, f"{path}.moduli[{i}]")
        for i, v in enumerate(_get_list(params["moduli"], f"{path}.moduli"))
    )
    return {"moduli": moduli}


_EXPECTED_KEYS = {
    "class-equation": {"admissible_products", "certificate_count", "survivors",
                       "decomposition_subcases"},
    "dim-decomposition": {"solutions"},
    "integer-decomposition": {"solutions"},
    "smatrix-verify": {"orthogonal", "dimension_consistent", "formal_codegrees",
                       "verlinde_nonnegative_integral", "galois_found",
                       "galois_permutation", "galois_unit_image_dim_square_is_one"},
    "field-membership": {"member"},
    "galois-structure": {"structures"},
}


def load_case(data: bytes | str, source: str = "<case>") -> Case:
    """Parse and validate one case document.

    Raises CaseFormatError on any schema problem; the message starts
    with the source label and the JSON path of the offending key.
    """
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(f"{source}: not valid JSON: {exc}") from exc
    try:
        obj = _get_object(doc, "$")
        _check_keys(obj, _TOP_LEVEL_KEYS, {"schema", "name", "kind", "parameters"}, "$")
        schema = _get_int(obj["schema"], "$.schema")
        if schema != SCHEMA_VERSION:
            _fail("$.schema", f"unsupported schema version {schema}")
        name = _get_str(obj["name"], "$.name")
        if not name:
            _fail("$.name", "name must be nonempty")
        kind = _get_str(obj["kind"], "$.kind")
        if kind not in KINDS:
            _fail("$.kind", f"unknown kind {kind!r}")
        parameters = _get_object(obj["parameters"], "$.parameters")
        payload = _prepare_parameters(kind, parameters, "$.parameters")
        expected = None
        if "expected" in obj:
            expected = _get_object(obj["expected"], "$.expected")
            for key in expected:
                if key not in _EXPECTED_KEYS[kind]:
                    _fail(f"$.expected.{key}", "unknown key")
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


@dataclass(frozen=True)
class Report:
    """Outcome of one case run.

    wall_time_s is informational and deliberately excluded from
    to_payload(), so rendered output is byte-identical across runs.
    """

    case_name: str
    kind: str
    tool_version: str
    parameters: dict
    results: dict
    expected: Optional[dict]
    passed: Optional[bool]
    error: Optional[str]
    wall_time_s: float

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


def _certificate_payload(cert: Certificate) -> dict:
    return {
        "candidate": str(cert.candidate),
        "coefficients": list(cert.candidate.coeffs),
        "filters": [
            {"name": r.name, "passed": r.passed, "witness": r.witness}
            for r in cert.filter_results
        ],
        "survived": cert.survived,
    }


def _decomposition_results(targets, counts) -> dict:
    solutions = {}
    total = 0
    for target, count in zip(targets, counts):
        found = enumerate_decompositions(target)
        solutions[str(count)] = [[list(term) for term in dec.terms] for dec in found]
        total += len(found)
    return {"solutions": solutions, "survivor_count": total}


def _run_class_equation(case: Case) -> dict:
    mode = case.payload["mode"]
    instance = case.payload["instance"]
    results: dict[str, Any] = {"mode": mode}
    if mode == "codegree":
        results["admissible_products"] = admissible_products(instance)
        certs = enumerate_candidates(instance)
    elif mode == "sum-scan":
        certs = enumerate_quadratic_scan(instance)
    else:
        certs = enumerate_dimension_pairs(instance)
    results["certificates"] = [_certificate_payload(c) for c in certs]
    results["certificate_count"] = len(certs)
    results["survivors"] = [str(c.candidate) for c in certs if c.survived]
    results["survivor_count"] = len(results["survivors"])
    if "subcases" in case.payload:
        sub_results = []
        for target in case.payload["subcases"]:
            found = enumerate_decompositions(target)
            sub_results.append({
                "n": target.n,
                "target": str(target.target),
                "rank_terms": target.rank_terms,
                "solutions": [[list(term) for term in dec.terms] for dec in found],
            })
        results["decomposition_subcases"] = sub_results
    return results


def _run_smatrix(case: Case) -> dict:
    matrix = case.payload["matrix"]
    orth = check_orthogonality(matrix)
    results: dict[str, Any] = {
        "orthogonal": orth.passes,
        "orthogonality_violation": list(orth.violating_pair) if orth.violating_pair else None,
        "dimension_consistent": dimension_consistency(matrix),
        "formal_codegrees": [str(f) for f in formal_codegrees(matrix)],
    }
    if orth.passes:
        verdict = verlinde_fusion(matrix, orth)
        results["verlinde_nonnegative_integral"] = verdict.nonnegative_integral
        results["verlinde_first_violation"] = (
            list(verdict.first_violation) if verdict.first_violation else None)
    else:
        results["verlinde_nonnegative_integral"] = False
        results["verlinde_first_violation"] = None
    galois = find_galois_permutation(matrix)
    results["galois_found"] = galois.found
    if galois.found:
        results["galois_permutation"] = list(galois.permutation.mapping)
        results["galois_unit_image"] = galois.permutation.unit_image
        results["galois_unit_image_dim_square_is_one"] = (
            galois.permutation.unit_image_dim_square_is_one)
    else:
        results["galois_permutation"] = None
        results["galois_unit_image"] = None
        results["galois_unit_image_dim_square_is_one"] = None
        results["galois_absence_reason"] = galois.reason
    return results


def _run_case_inner(case: Case) -> dict:
    if case.kind == "class-equation":
        return _run_class_equation(case)
    if case.kind == "dim-decomposition":
        return _decomposition_results(case.payload["targets"], case.payload["term_counts"])
    if case.kind == "integer-decomposition":
        solutions = {}
        total = 0
        for count in case.payload["term_counts"]:
            found = enumerate_integer_square_decompositions(
                case.payload["total"], count, case.payload["divisor_bound"])
            solutions[str(count)] = [list(sol) for sol in found]
            total += len(found)
        return {"solutions": solutions, "survivor_count": total}
    if case.kind == "smatrix-verify":
        return _run_smatrix(case)
    if case.kind == "field-membership":
        member = in_cyclic_cubic_field(case.payload["polynomial"], case.payload["conductor"])
        return {"polynomial": str(case.payload["polynomial"]),
                "conductor": case.payload["conductor"],
                "member": member}
    # galois-structure
    structures = {
        str(modulus): list(cyclotomic_galois_structure(modulus).factor_orders)
        for modulus in case.payload["moduli"]
    }
    return {"structures": structures}


def _expected_matches(case: Case, results: dict) -> bool:
    assert case.expected is not None
    for key, wanted in case.expected.items():
        if key == "decomposition_subcases":
            actual = [sc["solutions"] for sc in results.get("decomposition_subcases", [])]
        else:
            actual = results.get(key)
        if actual != wanted:
            return False
    return True


def run_case(case: Case) -> Report:
    """Dispatch one case; engine exceptions become case-level failures."""
    start = time.monotonic()
    try:
        results = _run_case_inner(case)
        error = None
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        results = {}
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.monotonic() - start
    if error is not None:
        passed: Optional[bool] = False
    elif case.expected is not None:
        passed = _expected_matches(case, results)
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
        wall_time_s=elapsed,
    )


def _render_solutions_text(lines: list[str], solutions: dict) -> None:
    for count in solutions:
        found = solutions[count]
        lines.append(f"terms={count}: {len(found)} solutions")
        for sol in found:
            if sol and isinstance(sol[0], list):
                body = " ".join(f"({a},{b})" for a, b in sol)
            else:
                body = " ".join(str(v) for v in sol)
            lines.append(f"  {body}")


def render_report(report: Report, format: str = "text") -> str:
    """One report as deterministic text or JSON."""
    if format == "json":
        return json.dumps(report.to_payload(), indent=2, sort_keys=True) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = [f"case: {report.case_name} ({report.kind})"]
    if report.error is not None:
        lines.append(f"error: {report.error}")
    results = report.results
    if "admissible_products" in results:
        lines.append("admissible products: "
                     + ", ".join(str(p) for p in results["admissible_products"]))
    for cert in results.get("certificates", ()):
        status = "SURVIVES" if cert["survived"] else next(
            f["name"] for f in cert["filters"] if not f["passed"])
        lines.append(f"{cert['candidate']}  {status}")
    if "solutions" in results:
        _render_solutions_text(lines, results["solutions"])
    for sub in results.get("decomposition_subcases", ()):
        lines.append(f"subcase target={sub['target']} terms={sub['rank_terms']}: "
                     f"{len(sub['solutions'])} solutions")
    if report.kind == "smatrix-verify" and not report.error:
        for key in ("orthogonal", "dimension_consistent",
                    "verlinde_nonnegative_integral", "galois_found",
                    "galois_unit_image_dim_square_is_one"):
            value = results.get(key)
            lines.append(f"{key}: {'PASS' if value else 'FAIL'}")
        lines.append("formal codegrees: " + ", ".join(results["formal_codegrees"]))
        if results.get("galois_permutation") is not None:
            lines.append("galois permutation: "
                         + " ".join(str(v) for v in results["galois_permutation"]))
    if report.kind == "field-membership" and not report.error:
        lines.append(f"{results['polynomial']}  "
                     f"{'MEMBER' if results['member'] else 'NOT-MEMBER'} "
                     f"(conductor {results['conductor']})")
    if report.kind == "galois-structure" and not report.error:
        for modulus, orders in results["structures"].items():
            lines.append(f"modulus {modulus}: " + " x ".join(str(v) for v in orders))
    if "survivor_count" in results:
        lines.append(f"survivors: {results['survivor_count']}")
    if report.error is not None:
        lines.append("result: ERROR")
    elif report.passed is None:
        lines.append("expected: none")
    else:
        lines.append(f"expected: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_reports(reports: list[Report], format: str = "text") -> str:
    """All reports, merged in input order, as one deterministic document."""
    if format == "json":
        body = {
            "schema": SCHEMA_VERSION,
            "reports": [r.to_payload() for r in reports],
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"
    return "\n".join(render_report(r, "text") for r in reports)


def bundled_case_paths() -> list[str]:
    """Absolute paths of the case files shipped inside the package."""
    root = resources.files("fusionarith").joinpath("cases")
    paths = [str(entry) for entry in root.iterdir()
             if entry.name.endswith(".case.json")]
    return sorted(paths, key=os.path.basename)


def _default_jobs() -> int:
    raw = os.environ.get("FUSION_ARITH_JOBS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_command(args: argparse.Namespace) -> int:
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
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    start = time.monotonic()
    if jobs > 1 and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(run_case, cases))
    else:
        reports = [run_case(c) for c in cases]
    elapsed = time.monotonic() - start
    output = render_reports(reports, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    failed = sum(1 for r in reports if r.passed is False)
    print(f"{len(reports)} cases, {failed} failed, {elapsed:.2f}s", file=sys.stderr)
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
    run_p.add_argument("--jobs", type=int,
                       help="parallel case workers (default $FUSION_ARITH_JOBS or 1)")
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
