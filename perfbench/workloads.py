"""Seeded case-file generators for the three benchmark workloads.

Each generator writes case files into a directory and returns a list of
specs, one per file, in the order the files are passed to the CLI.  A
spec holds the file path plus everything the checks in ``checks.py``
need to judge that case's report, worked out here without any code from
the package under test.

The seed changes how the inputs are written, never how much work they
ask for: the order of the files, case names, equivalent spellings of
the same fractions, the order of bound lists the engine sorts, the
labelling of simple objects of an S-matrix, whether an S-matrix is
replaced by its Galois conjugate, and how term counts are grouped into
case files.  So two seeds measure the same work, and the spread between
runs is the machine's, not the inputs'.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

BUNDLED = Path(__file__).resolve().parent.parent / "src" / "fusionarith" / "cases"

# cubic codegree scans (N, N, N), bounds (N/4, N/2, N), product | N^3;
# primes and composites, about 3 s of engine time on one core
CODEGREE_LADDER = (13, 14, 17, 19, 22)
# Kronecker powers of the Fibonacci S-matrix: ranks 4, 8 and 16
KRON_POWERS = (2, 3, 4)
# (14+5r5)*k at these term counts
DECOMPOSITION_MULTIPLES = (4, 6, 8)
DECOMPOSITION_TERMS = (5, 6, 7, 8)
# field-mode quadratic sum scans over a | product
SUM_SCAN_PRODUCTS = (2**8 * 5**5, 2**6 * 5**5)


def _spell(q: Fraction, rng: random.Random) -> str:
    """q as an exact string, sometimes unreduced ("26/2" for 13)."""
    m = rng.choice((1, 1, 2, 3))
    if m == 1:
        return str(q)
    return f"{q.numerator * m}/{q.denominator * m}"


def write_case(directory: Path, name: str, kind: str, params: dict) -> Path:
    path = directory / f"{name}.case.json"
    doc = {"schema": 1, "name": name, "kind": kind, "parameters": params}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _bundled(name: str) -> tuple[Path, dict]:
    path = BUNDLED / f"{name}.case.json"
    return path, json.loads(path.read_text(encoding="utf-8"))


def _codegree_spec(path: Path, name: str, params: dict) -> dict:
    return {
        "check": "codegree", "path": str(path), "case": name,
        "fixed_codegrees": [int(Fraction(c)) for c in params["fixed_codegrees"]],
        "product_divides": params["product_divides"],
        "bounds": [str(Fraction(b)) for b in params["root_lower_bounds"]],
        "real_roots": params.get("product_feasibility") == "real-roots",
        "membership_conductor": params.get("membership_conductor"),
        "excluded": [list(p) for p in params.get("excluded_quadratic_subfields", [])],
    }


def codegree_scan(seed: int, directory: Path, ladder=CODEGREE_LADDER) -> list[dict]:
    rng = random.Random(seed)
    specs = []
    for n in ladder:
        bounds = [Fraction(n, 4), Fraction(n, 2), Fraction(n)]
        rng.shuffle(bounds)
        name = f"cubic-{n}-{rng.randrange(16**4):04x}"
        params = {
            "mode": "codegree",
            "global_dim": n,
            "fixed_codegrees": [_spell(Fraction(n), rng) for _ in range(3)],
            "orbit_degree": 3,
            "product_divides": n**3,
            "root_lower_bounds": [_spell(b, rng) for b in bounds],
        }
        path = write_case(directory, name, "class-equation", params)
        specs.append(_codegree_spec(path, name, params))
    for bundled in ("dim7-modular", "dim9-rank7"):
        path, doc = _bundled(bundled)
        spec = _codegree_spec(path, doc["name"], doc["parameters"])
        spec["expected"] = doc["expected"]
        specs.append(spec)
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# Z[phi], phi = (1+r5)/2, as integer pairs (x, y) meaning x + y*phi


def phi_mul(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    (a, b), (c, d) = p, q
    return (a * c + b * d, a * d + b * c + b * d)  # phi^2 = phi + 1


def phi_conj(p: tuple[int, int]) -> tuple[int, int]:
    x, y = p
    return (x + y, -y)  # phi -> 1 - phi


def phi_half_pair(p: tuple[int, int]) -> list[int]:
    """x + y*phi as the case-file pair (a, b) meaning (a + b*r5)/2."""
    x, y = p
    return [2 * x + y, y]


def phi_exact(p: tuple[int, int]) -> list[str]:
    """x + y*phi as [rational part, coefficient of r5], exact strings."""
    x, y = p
    return [str(Fraction(2 * x + y, 2)), str(Fraction(y, 2))]


def phi_text(p: tuple[int, int]) -> str:
    rat, coef = (Fraction(v) for v in phi_exact(p))
    sign = "+" if coef >= 0 else "-"
    return f"{rat}{sign}{abs(coef)}r5"


FIB_S = (((1, 0), (0, 1)), ((0, 1), (-1, 0)))  # [[1, phi], [phi, -1]]
FIB_DIM = (2, 1)                                  # 1 + phi^2 = 2 + phi
FIB_CODEGREES = ((2, 1), (3, -1))                 # D^2/1 and D^2/phi^2
FIB_GALOIS = (1, 0)                               # r5 -> -r5 swaps 1 and tau


def kron_case(power: int, conjugate: bool, relabel: list[int]) -> tuple[dict, dict]:
    """Parameters of the S-matrix of Fib^(x power), and what its report
    must show.  relabel[i] is the old index of new object i."""
    size = 2**power
    entries, dim, codegrees = [[(1, 0)]], (1, 0), [(1, 0)]
    galois = [0]
    for _ in range(power):
        m = len(entries)
        entries = [[phi_mul(entries[i // 2][j // 2], FIB_S[i % 2][j % 2])
                    for j in range(2 * m)] for i in range(2 * m)]
        dim = phi_mul(dim, FIB_DIM)
        codegrees = [phi_mul(c, f) for c in codegrees for f in FIB_CODEGREES]
        galois = [2 * g + FIB_GALOIS[k % 2] for g in galois for k in range(2)]
    if conjugate:
        entries = [[phi_conj(e) for e in row] for row in entries]
        dim = phi_conj(dim)
        codegrees = [phi_conj(c) for c in codegrees]
    # every row of S has squared norm dim(C) and distinct rows are orthogonal
    for i in range(size):
        for j in range(size):
            acc = (0, 0)
            for k in range(size):
                x, y = phi_mul(entries[i][k], entries[j][k])
                acc = (acc[0] + x, acc[1] + y)
            if acc != (dim if i == j else (0, 0)):
                raise RuntimeError(f"generated S-matrix is not orthogonal at ({i}, {j})")
    inverse = {old: new for new, old in enumerate(relabel)}
    unit = inverse[0]
    params = {
        "n": 5,
        "kind": "modular",
        "declared_dim": phi_text(dim),
        "unit_index": unit,
        "entries": [[phi_half_pair(entries[relabel[i]][relabel[j]]) for j in range(size)]
                    for i in range(size)],
    }
    mapping = [inverse[galois[relabel[i]]] for i in range(size)]
    expected = {
        "galois_permutation": mapping,
        "galois_unit_image": mapping[unit],
        # the unit goes to the object of dimension (+-phi)^(+-power), whose square is not 1
        "galois_unit_image_dim_square_is_one": False,
        "formal_codegrees": sorted(phi_exact(c) for c in codegrees),
    }
    return params, expected


def verlinde_kron(seed: int, directory: Path, powers=KRON_POWERS) -> list[dict]:
    rng = random.Random(seed)
    specs = []
    for power in powers:
        relabel = list(range(2**power))
        rng.shuffle(relabel)
        conjugate = rng.random() < 0.5
        params, expected = kron_case(power, conjugate, relabel)
        name = f"{'yanglee' if conjugate else 'fib'}-kron{2**power}-{rng.randrange(16**4):04x}"
        path = write_case(directory, name, "smatrix-verify", params)
        specs.append({"check": "kron", "path": str(path), "case": name, "expected": expected})
    for bundled in ("smatrix-ising", "smatrix-supdim10"):
        path, doc = _bundled(bundled)
        specs.append({"check": "smatrix-expected", "path": str(path), "case": doc["name"],
                      "expected": doc["expected"]})
    rng.shuffle(specs)
    return specs


def quadratic_search(seed: int, directory: Path, multiples=DECOMPOSITION_MULTIPLES,
                     terms=DECOMPOSITION_TERMS, products=SUM_SCAN_PRODUCTS) -> list[dict]:
    rng = random.Random(seed)
    specs = []
    for k in multiples:
        counts = list(terms)
        rng.shuffle(counts)
        cut = rng.randrange(1, len(counts) + 1)
        for part in (counts[:cut], counts[cut:]):
            if not part:
                continue
            name = f"dec-{k}x-{rng.randrange(16**4):04x}"
            rat, coef = Fraction(14 * k), Fraction(5 * k)
            params = {"n": 5, "target": f"{_spell(rat, rng)}+{_spell(coef, rng)}r5",
                      "term_counts": part}
            path = write_case(directory, name, "dim-decomposition", params)
            specs.append({"check": "decomposition", "path": str(path), "case": name,
                          "n": 5, "target": [14 * k, 5 * k], "term_counts": part})
    for product in products:
        name = f"sumscan-{product}-{rng.randrange(16**4):04x}"
        params = {"mode": "sum-scan", "global_dim": 10, "product_divides": product,
                  "trace_exceeds": 1, "trace_ratio_max": _spell(Fraction(1), rng),
                  "required_field": 5}
        path = write_case(directory, name, "class-equation", params)
        specs.append({"check": "sum-scan", "path": str(path), "case": name, "global_dim": 10,
                      "product_divides": product, "trace_exceeds": 1, "trace_ratio_max": "1"})
    rng.shuffle(specs)
    return specs


WORKLOADS = {
    "codegree-scan": codegree_scan,
    "verlinde-kron": verlinde_kron,
    "quadratic-search": quadratic_search,
}
