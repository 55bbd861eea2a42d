"""Steadiness check: two separate sets of repeated benchmark runs.

    python3 perfbench/steady.py

For each set, runs ``run.py`` RUNS times on every workload in
BENCHMARK.json, each with its own seed, one run at a time.  Then prints, per workload and
end-to-end metric, both sets' medians and quartiles, the spread
(quartile distance over median) of each set, the change of the second
median against the first, and the bound from BENCHMARK.json.  A metric
is steady when both spreads stay within its bound and the two medians
differ by no more than the bound, either way; the share of failed operations must be the same in both
sets.  Raw results go to .perfbench-out/steady.json.  Exits 1 when
something is not steady.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=600)
    except BaseException:
        proc.terminate()  # run.py stops its own CLI child on SIGTERM
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results: dict[str, list[list[dict]]] = {w: [[], []] for w in workloads}
    for which in (0, 1):
        for workload in workloads:
            for i in range(RUNS):
                seed = 1000 * (which + 1) + i
                result = one_run(workload, seed, spec["run_seconds"])
                results[workload][which].append(result)
                values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"set {which + 1} {workload} seed {seed}: {values} "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    steady = True
    print(f"\n{'workload':17} {'metric':12} {'set 1 median [q1, q3]':30} "
          f"{'set 2 median [q1, q3]':30} {'spread':13} {'change':>7} {'bound':>5}")
    for workload in workloads:
        sets = results[workload]
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if shares[0] != shares[1]:
            steady = False
            print(f"{workload}: failed share differs between sets: {shares}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in s]) for s in sets]
            spreads = [(q3 - q1) / med for med, q1, q3 in stats]
            change = (stats[1][0] - stats[0][0]) / stats[0][0]
            ok = abs(change) <= bound and max(spreads) <= bound
            steady = steady and ok
            cells = [f"{m:.4f} [{a:.4f}, {b:.4f}]" for m, a, b in stats]
            print(f"{workload:17} {name:12} {cells[0]:30} {cells[1]:30} "
                  f"{spreads[0]:.3f}/{spreads[1]:.3f}   {change:+.3f} {bound:>5}"
                  f"{'' if ok else '  NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
