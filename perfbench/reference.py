"""One-off reference figures for the benchmark README.

    python3 perfbench/reference.py

Prints markdown tables: the bundled suite (``run --all``), each
workload's seed-1 inputs at ``--jobs 1`` and ``--jobs 2``, the scaling
ladders (cubic scan N=7..29, Fibonacci Kronecker powers rank 2..16,
decompositions of (14+5r5)k for k=1..8 at 5-8 terms) and the tracing
overhead per workload.  Each figure is one CLI child, spawn to exit, so
treat them as indicative; the benchmark itself reports medians.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def cli(args: list[str], log: Path) -> tuple[float, float, float]:
    """(wall s, in-process s from the CLI's stderr line, peak RSS MiB)."""
    peak = log.with_suffix(".peak")
    wall, code = run.spawn([str(HERE / "cli_child.py"), str(peak), *args], log)
    text = log.read_text()
    if code not in (0, 1):
        raise SystemExit(text)
    inner = float(re.search(r"failed, ([0-9.]+)s", text).group(1))
    return wall, inner, int(peak.read_text()) / 1024


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        d = Path(tmp)
        log, out = d / "log", d / "out.json"
        base = ["--format", "json", "--out", str(out)]
        print("| input | wall s | in-process s | peak RSS MiB |\n|---|---|---|---|")
        wall, inner, rss = cli(["run", "--all", *base], log)
        print(f"| bundled suite, `run --all` | {wall:.3f} | {inner:.3f} | {rss:.1f} |")
        for name, make in workloads.WORKLOADS.items():
            sub = d / name
            sub.mkdir()
            paths = [s["path"] for s in make(1, sub)]
            for jobs in ("1", "2"):
                wall, inner, rss = cli(["run", *paths, *base, "--jobs", jobs], log)
                print(f"| {name}, seed 1, `--jobs {jobs}` | {wall:.3f} | {inner:.3f} "
                      f"| {rss:.1f} |")
        for n in range(7, 30):
            path = str(workloads.write_case(d, f"cubic-{n}", "class-equation", {
                "global_dim": n, "fixed_codegrees": [str(n)] * 3, "orbit_degree": 3,
                "product_divides": n**3,
                "root_lower_bounds": [str(Fraction(n, 4)), str(Fraction(n, 2)), str(n)]}))
            wall, inner, rss = cli(["run", path, *base], log)
            count = json.loads(out.read_text())["reports"][0]["results"]["certificate_count"]
            print(f"| cubic scan N={n}, {count} certificates | {wall:.3f} | {inner:.3f} "
                  f"| {rss:.1f} |")
        for power in range(1, 5):
            params, _ = workloads.kron_case(power, False, list(range(2**power)))
            path = str(workloads.write_case(d, f"fib-{power}", "smatrix-verify", params))
            wall, inner, rss = cli(["run", path, *base], log)
            print(f"| Fibonacci Kronecker power, rank {2**power} | {wall:.3f} | {inner:.3f} "
                  f"| {rss:.1f} |")
        for k in range(1, 9):
            path = str(workloads.write_case(d, f"dec-{k}", "dim-decomposition", {
                "n": 5, "target": f"{14 * k}+{5 * k}r5", "term_counts": [5, 6, 7, 8]}))
            wall, inner, rss = cli(["run", path, *base], log)
            print(f"| (14+5r5)x{k} at 5-8 terms | {wall:.3f} | {inner:.3f} | {rss:.1f} |")
    print("\n| workload | traced run_case_s | trace.overhead_s |\n|---|---|---|")
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", "1", "--seconds", "1", "--trace", "1"],
                              cwd=run.ROOT, capture_output=True, text=True, check=True)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        print(f"| {name} | {metrics['casefile.run_case_s']['value']:.3f} "
              f"| {metrics['trace.overhead_s']['value']:.3f} |")


if __name__ == "__main__":
    main()
