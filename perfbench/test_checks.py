"""Tests of the benchmark's own checks.

    python3 -m pytest -q perfbench

Each workload is generated at a small size and run through the CLI in
this process; the checks must accept the real reports and reject every
deliberately corrupted one.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fusionarith.casefile import main as cli  # noqa: E402
from oracles import brute_decompositions  # noqa: E402

SMALL = {
    "codegree-scan": lambda seed, d: workloads.codegree_scan(seed, d, ladder=(7, 8)),
    "verlinde-kron": lambda seed, d: workloads.verlinde_kron(seed, d, powers=(1, 2)),
    "quadratic-search": lambda seed, d: workloads.quadratic_search(
        seed, d, multiples=(1, 2), terms=(4, 5), products=(2**3 * 5**2,)),
}


def _reports(workload: str, tmp_path: Path, seed: int = 7):
    specs = SMALL[workload](seed, tmp_path)
    out = tmp_path / "report.json"
    cli(["run", *(s["path"] for s in specs), "--format", "json", "--jobs", "1",
         "--out", str(out)])
    reports = json.loads(out.read_text())["reports"]
    return [(spec, report, checks.reference_for(spec)) for spec, report in zip(specs, reports)]


def _first(cases, kind):
    return next(c for c in cases if c[0]["check"] == kind)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_real_reports_pass(workload, tmp_path):
    for spec, report, reference in _reports(workload, tmp_path):
        assert checks.check_case(spec, report, reference) == [], spec["case"]


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for name, make in SMALL.items():
        first = [Path(s["path"]).read_text() for s in make(3, a)]
        assert first == [Path(s["path"]).read_text() for s in make(3, b)], name


def _drop_product(r):
    r["results"]["admissible_products"].pop()


def _drop_certificate(r):
    r["results"]["certificates"].pop()
    r["results"]["certificate_count"] -= 1


def _false_survivor(r):
    cert = r["results"]["certificates"][-1]
    for f in cert["filters"]:
        f["passed"] = True
    cert["survived"] = True
    r["results"]["survivors"].append(cert["candidate"])


def _engine_error(r):
    r["error"] = "RuntimeError: corrupted"


@pytest.mark.parametrize("corrupt", [_drop_product, _drop_certificate, _false_survivor,
                                     _engine_error])
def test_codegree_check_rejects(corrupt, tmp_path):
    spec, report, reference = next(c for c in _reports("codegree-scan", tmp_path)
                                   if c[0]["check"] == "codegree" and "expected" not in c[0])
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert checks.check_case(spec, bad, reference)


def _swap_galois(r):
    p = r["results"]["galois_permutation"]
    p[0], p[1] = p[1], p[0]


def _shift_codegree(r):
    r["results"]["formal_codegrees"][0] = "5+1r5"


def _not_orthogonal(r):
    r["results"]["orthogonal"] = False


def _not_integral(r):
    r["results"]["verlinde_nonnegative_integral"] = False


def _unit_image(r):
    r["results"]["galois_unit_image_dim_square_is_one"] = True


@pytest.mark.parametrize("corrupt", [_swap_galois, _shift_codegree, _not_orthogonal,
                                     _not_integral, _unit_image])
def test_kron_check_rejects(corrupt, tmp_path):
    cases = _reports("verlinde-kron", tmp_path)
    spec, report, reference = max((c for c in cases if c[0]["check"] == "kron"),
                                  key=lambda c: len(c[1]["results"]["galois_permutation"]))
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert checks.check_case(spec, bad, reference)


def test_bundled_smatrix_check_rejects(tmp_path):
    spec, report, reference = _first(_reports("verlinde-kron", tmp_path), "smatrix-expected")
    bad = copy.deepcopy(report)
    bad["results"]["formal_codegrees"].reverse()
    assert checks.check_case(spec, bad, reference)


def _solutions(r):
    return max(r["results"]["solutions"].values(), key=len)


def _wrong_sum(r):
    _solutions(r)[0][0][0] += 2


def _duplicate(r):
    sols = _solutions(r)
    sols.append(copy.deepcopy(sols[0]))


def _missing(r):
    _solutions(r).pop()


@pytest.mark.parametrize("corrupt", [_wrong_sum, _duplicate, _missing])
def test_decomposition_check_rejects(corrupt, tmp_path):
    cases = [c for c in _reports("quadratic-search", tmp_path) if c[0]["check"] == "decomposition"]
    spec, report, reference = max(cases, key=lambda c: len(_solutions(c[1])))
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert checks.check_case(spec, bad, reference)


def test_decomposition_check_rejects_parity():
    # (2,1) is not an algebraic-integer half pair in Q(r5): 4 - 5 is odd
    terms = [[2, 1], [1, 1]]
    a_total = sum(a * a + 5 * b * b for a, b in terms)
    b_total = sum(a * b for a, b in terms)
    spec = {"check": "decomposition", "n": 5, "target": [a_total // 4, b_total // 2],
            "term_counts": [2]}
    report = {"error": None, "passed": None, "results": {"solutions": {"2": [terms]}}}
    counts = {2: 1}
    assert any("parity" in p for p in checks.check_case(spec, report, counts))


def _miscount(r):
    r["results"]["certificate_count"] += 1


def _set_survival(cert, survived):
    """Flip one certificate's verdict, keeping the report self-consistent."""
    cert["survived"] = survived
    cert["filters"][-1]["passed"] = survived


def _false_scan_survivor(r):
    results = r["results"]
    cert = next(c for c in results["certificates"] if not c["survived"]
                and len(c["filters"]) == 4)
    _set_survival(cert, True)
    _resync_survivors(results)


def _lost_scan_survivor(r):
    results = r["results"]
    _set_survival(next(c for c in results["certificates"] if c["survived"]), False)
    _resync_survivors(results)


def _resync_survivors(results):
    results["survivors"] = [c["candidate"] for c in results["certificates"] if c["survived"]]
    results["survivor_count"] = len(results["survivors"])


@pytest.mark.parametrize("corrupt", [_drop_certificate, _miscount, _false_scan_survivor,
                                     _lost_scan_survivor])
def test_sum_scan_check_rejects(corrupt, tmp_path):
    spec, report, reference = _first(_reports("quadratic-search", tmp_path), "sum-scan")
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert checks.check_case(spec, bad, reference)


@pytest.mark.parametrize("k,terms", [(1, 4), (1, 5), (2, 4), (2, 5), (2, 6)])
def test_count_matches_brute_force(k, terms):
    a_total, b_total = 4 * 14 * k, 2 * 5 * k
    assert checks.count_decompositions(5, a_total, b_total, terms)[terms] == \
        len(brute_decompositions(5, a_total, b_total, terms))


def test_self_time_excludes_child_spans():
    nodes = [["<root>", -1, 0, 0.0, 3.0],
             ["casefile.run_case", 0, 1, 3.0, 2.0],
             ["dimsolve.parity_check", 1, 4, 2.0, 0.5],
             ["exactcore.squarefree_int", 2, 4, 0.5, 0.0]]
    folded = run.fold(nodes)
    assert folded["casefile.run_case"] == [1, 1.0, 3.0]
    assert folded["dimsolve.parity_check"] == [4, 1.5, 2.0]


def test_per_layer_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cases = _reports("codegree-scan", tmp_path)
    specs = [c[0] for c in cases]
    report = json.dumps({"reports": [c[1] for c in cases]}).encode()
    names = set(run.layer_metrics([["<root>", -1, 0, 0.0, 0.0]], report, specs))
    names.add("trace.overhead_s")
    assert names == {m["name"] for m in spec["per_layer"]}


def test_prefilter_yield_counts_only_the_scan_loop():
    report = json.dumps({"reports": [{"results": {"certificate_count": 3}}]}).encode()
    nodes = [["<root>", -1, 0, 0.0, 1.0],
             ["casefile.run_case", 0, 1, 1.0, 0.5],
             ["algint.d_number", 1, 12, 0.2, 0.0],
             ["codegree_enum.pipeline", 1, 3, 0.3, 0.1],
             ["algint.d_number", 3, 3, 0.1, 0.0]]
    metrics = run.layer_metrics(nodes, report, [{"check": "codegree"}])
    assert metrics["codegree_enum.prefilter_yield"] == (0.25, "ratio")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "codegree-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
