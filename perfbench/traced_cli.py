"""Run the fusion-arith CLI with the package's public functions timed.

    python3 perfbench/traced_cli.py TREE.json run CASE... --format json --out R.json

Before the CLI starts, each function named in LAYERS (and each method
in METHODS) is rebound to a timing wrapper, in its own module and in
every module that imported it by name, so calls made inside the package
are seen as well.  Spans are merged by call path as they close: one
record per (parent record, name) holds the number of calls, their total
time and the time spent in child spans.  A decomposition search makes
millions of parity-check spans; merged, they are one record, and self
time (span minus child spans) is still exact.  Records stay in
memory and are written to TREE.json when the CLI returns.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = {
    "casefile": {
        "load_case_file": "casefile.load",
        "run_case": "casefile.run_case",
        "render_reports": "casefile.render",
    },
    "codegree_enum": {
        "admissible_products": "codegree_enum.admissible",
        "run_filter_pipeline": "codegree_enum.pipeline",
        "enumerate_quadratic_scan": "codegree_enum.quadratic_scan",
    },
    "exactcore": {
        "sturm_chain": "exactcore.sturm_chain",
        "refine_interval": "exactcore.refine",
        "isolate_real_roots": "exactcore.isolate",
        "sturm_real_root_count": "exactcore.root_count",
        "factor_over_rationals": "exactcore.factor",
        "rational_roots": "exactcore.rational_roots",
        "squarefree_part": "exactcore.squarefree_int",
    },
    "algint": {
        "is_d_number": "algint.d_number",
        "passes_cyclotomic_test": "algint.cyclotomic",
        "in_cyclic_cubic_field": "algint.membership",
    },
    "smatrix": {
        "check_orthogonality": "smatrix.orthogonality",
        "verlinde_fusion": "smatrix.verlinde",
        "find_galois_permutation": "smatrix.galois",
    },
    "dimsolve": {
        "enumerate_decompositions": "dimsolve.search",
        "algebraic_integer_check": "dimsolve.parity_check",
    },
}

QFE_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
           "sign", "conjugate", "norm", "trace", "sqrt", "is_totally_positive",
           "is_algebraic_integer")

METHODS = {
    ("exactcore", "QuadraticFieldElement"): {
        "__post_init__": "exactcore.qfe_new", **{op: "exactcore.qfe_op" for op in QFE_OPS}},
    ("dimsolve", "Decomposition"): {"value": "dimsolve.verify"},
}


class CallTree:
    """Spans merged by call path: [name, parent, calls, total_s, child_s]."""

    def __init__(self) -> None:
        self.nodes: list[list] = [["<root>", -1, 0, 0.0, 0.0]]
        self.index: dict[tuple[int, str], int] = {}
        self.current = 0

    def wrap(self, name: str, fn):
        nodes, index = self.nodes, self.index

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            node = index.get((parent, name))
            if node is None:
                node = index[(parent, name)] = len(nodes)
                nodes.append([name, parent, 0, 0.0, 0.0])
            self.current = node
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.current = parent
                record = nodes[node]
                record[2] += 1
                record[3] += elapsed
                nodes[parent][4] += elapsed

        return traced


def install(tree: CallTree) -> None:
    import fusionarith.casefile  # noqa: F401  (imports every module below)

    package = {name: mod for name, mod in sys.modules.items()
               if name.startswith("fusionarith.") and mod is not None}
    for module, functions in LAYERS.items():
        home = package[f"fusionarith.{module}"]
        for attr, span in functions.items():
            original = getattr(home, attr)
            wrapped = tree.wrap(span, original)
            for mod in package.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
    for (module, cls), methods in METHODS.items():
        klass = getattr(package[f"fusionarith.{module}"], cls)
        for attr, span in methods.items():
            setattr(klass, attr, tree.wrap(span, klass.__dict__[attr]))


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tree = CallTree()
    install(tree)
    from fusionarith.casefile import main as cli

    try:
        return cli(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"nodes": tree.nodes}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
