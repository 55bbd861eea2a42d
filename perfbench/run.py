"""Benchmark of the fusion-arith CLI on generated case files.

    python3 perfbench/run.py --workload codegree-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is taken from ``src/``
(it need not be installed) and the survivor oracle from
``tests/oracles.py``.  Every CLI child runs with ``--jobs 1`` and
PYTHONHASHSEED fixed, one at a time, from this process.

--trace 0 repeats rounds of one ``run`` child and three ``validate``
children on the workload's case files for about --seconds seconds and
reports the medians of wall_s (``run``, spawn to exit), setup_s
(``validate``: interpreter start, import, parsing and validation) and
peak_rss_mb (the ``run`` child's own peak RSS, see ``cli_child.py``).

--trace 1 repeats rounds of one plain ``run`` child and one child under
``traced_cli.py`` and reports the per-layer metrics of the traced runs
(medians over rounds) and trace.overhead_s.

Every distinct report is checked against ``checks.py``.  Each case in
each round is one operation: it fails when its report carries an engine
error or fails a check, and ``correct`` turns false when a case without
an engine error fails a check.  The last line of stdout is the result as
JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

VALIDATES_PER_ROUND = 3
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FUSION_ARITH_JOBS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, int]:
    """Run one Python child to its end: (wall seconds, exit code)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    env = child_env()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status)


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        self.work = OUT / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "cases").mkdir(parents=True)
        self.log = self.work / "child.log"
        self.report = self.work / "report.json"
        self.peak = self.work / "peak_kb"
        self.specs = workloads.WORKLOADS[workload](seed, self.work / "cases")
        self.paths = [spec["path"] for spec in self.specs]
        self.reports: dict[str, bytes] = {}  # digest -> report bytes
        self.rounds: list[str] = []          # digest of each run's report, "" if none

    def run_args(self) -> list[str]:
        return ["run", *self.paths, "--format", "json", "--jobs", "1", "--out", str(self.report)]

    def validate(self) -> float:
        wall, code = spawn(["-m", "fusionarith.casefile", "validate", *self.paths], self.log)
        if code != 0:
            raise SystemExit(f"validate exited {code}:\n{self.log.read_text()}")
        return wall

    def run(self, argv: list[str]) -> float:
        """One ``run`` child under argv; records its report, returns its wall time."""
        self.report.unlink(missing_ok=True)
        wall, code = spawn(argv, self.log)
        digest = ""
        if self.report.exists() and code in (0, 1):
            data = self.report.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            self.reports.setdefault(digest, data)
        elif code not in (0, 1):
            sys.stderr.write(f"run exited {code}:\n{self.log.read_text()[-2000:]}\n")
        self.rounds.append(digest)
        return wall

    def run_plain(self) -> tuple[float, float]:
        """One untraced ``run`` child: (wall seconds, peak RSS MiB)."""
        self.peak.unlink(missing_ok=True)
        wall = self.run([str(HERE / "cli_child.py"), str(self.peak), *self.run_args()])
        return wall, int(self.peak.read_text()) / 1024

    def verdicts(self, references: list) -> tuple[int, int, bool]:
        """(attempted, failed, correct) over every round."""
        import checks

        outcome = {}
        for digest, data in self.reports.items():
            reports = json.loads(data)["reports"]
            failed, wrong = 0, False
            for i, spec in enumerate(self.specs):
                report = reports[i] if i < len(reports) else None
                if report is not None and report["case"] != spec["case"]:
                    report = None
                problems = checks.check_case(spec, report, references[i])
                if problems:
                    failed += 1
                    errored = report is not None and report.get("error") is not None
                    wrong = wrong or not errored
                    sys.stderr.write(f"{spec['case']}: {'; '.join(problems[:3])}\n")
            outcome[digest] = (failed, wrong)
        attempted = failed = 0
        correct = True
        for digest in self.rounds:
            attempted += len(self.specs)
            bad, wrong = outcome.get(digest, (len(self.specs), False))
            failed += bad
            correct = correct and not wrong
        return attempted, failed, correct


def repeat(seconds: float, minimum: int, one_round) -> None:
    """Whole rounds, at least minimum, until the next would end past seconds."""
    start = time.perf_counter()
    done = 0
    while True:
        one_round()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed + elapsed / done > seconds:
            return


def measure(bench: Bench, seconds: float) -> dict:
    walls, rss, setups = [], [], []

    def one_round() -> None:
        wall, mem = bench.run_plain()
        walls.append(wall)
        rss.append(mem)
        setups.extend(bench.validate() for _ in range(VALIDATES_PER_ROUND))

    repeat(seconds, MIN_ROUNDS, one_round)
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
    }


def fold(nodes: list[list]) -> dict[str, list]:
    """Per span name: [calls, self seconds, total seconds]; zeros for names never seen."""
    by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for name, _parent, calls, total, child in nodes[1:]:
        entry = by_name[name]
        entry[0] += calls
        entry[1] += total - child
        entry[2] += total
    return by_name


def layer_metrics(nodes: list[list], report: bytes,
                  specs: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    by_name = fold(nodes)

    def calls(name: str) -> int:
        return by_name[name][0]

    def self_s(name: str) -> float:
        return by_name[name][1]

    def total_s(name: str) -> float:
        return by_name[name][2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sqf_in_check = sum(node[2] for node in nodes[1:] if node[0] == "exactcore.squarefree_int"
                       and nodes[node[1]][0] == "dimsolve.parity_check")
    # free-coefficient values the cubic scan loop examined: its own d-number
    # tests, called from run_case with no traced function in between
    scanned = sum(node[2] for node in nodes[1:] if node[0] == "algint.d_number"
                  and nodes[node[1]][0] == "casefile.run_case")
    certificates = sum(rep["results"].get("certificate_count", 0)
                       for spec, rep in zip(specs, json.loads(report)["reports"])
                       if spec["check"] == "codegree")
    m: dict[str, tuple[float, str]] = {
        "casefile.load_ms": (1000 * self_s("casefile.load"), "ms"),
        "casefile.run_case_s": (total_s("casefile.run_case"), "s"),
        "casefile.render_ms": (1000 * self_s("casefile.render"), "ms"),
        "casefile.report_kb": (len(report) / 1024, "KiB"),
        "codegree_enum.admissible_ms": (1000 * self_s("codegree_enum.admissible"), "ms"),
        "codegree_enum.pipeline_calls": (calls("codegree_enum.pipeline"), "count"),
        "codegree_enum.pipeline_s": (self_s("codegree_enum.pipeline"), "s"),
        "codegree_enum.prefilter_yield": (ratio(certificates, scanned), "ratio"),
        "codegree_enum.quadratic_scan_s": (self_s("codegree_enum.quadratic_scan"), "s"),
    }
    for short in ("sturm_chain", "refine", "isolate", "root_count", "factor",
                  "rational_roots", "squarefree_int"):
        m[f"exactcore.{short}_calls"] = (calls(f"exactcore.{short}"), "count")
        m[f"exactcore.{short}_s"] = (self_s(f"exactcore.{short}"), "s")
    m["exactcore.chains_per_candidate"] = (
        ratio(calls("exactcore.sturm_chain"), calls("codegree_enum.pipeline")), "ratio")
    m["exactcore.qfe_new"] = (calls("exactcore.qfe_new"), "count")
    m["exactcore.qfe_ops"] = (calls("exactcore.qfe_op"), "count")
    m["exactcore.qfe_s"] = (self_s("exactcore.qfe_new") + self_s("exactcore.qfe_op"), "s")
    for short in ("d_number", "cyclotomic", "membership"):
        m[f"algint.{short}_calls"] = (calls(f"algint.{short}"), "count")
        m[f"algint.{short}_s"] = (self_s(f"algint.{short}"), "s")
    m["smatrix.orthogonality_calls"] = (calls("smatrix.orthogonality"), "count")
    m["smatrix.orthogonality_s"] = (self_s("smatrix.orthogonality"), "s")
    m["smatrix.verlinde_s"] = (self_s("smatrix.verlinde"), "s")
    m["smatrix.galois_s"] = (self_s("smatrix.galois"), "s")
    m["dimsolve.search_s"] = (self_s("dimsolve.search"), "s")
    m["dimsolve.parity_checks"] = (calls("dimsolve.parity_check"), "count")
    m["dimsolve.squarefree_per_check"] = (ratio(sqf_in_check, calls("dimsolve.parity_check")),
                                          "ratio")
    m["dimsolve.verify_s"] = (self_s("dimsolve.verify"), "s")
    return m


def trace(bench: Bench, seconds: float) -> dict:
    plain, traced, layers = [], [], defaultdict(list)
    units = {}
    tree = bench.work / "tree.json"

    def one_round() -> None:
        plain.append(bench.run_plain()[0])
        tree.unlink(missing_ok=True)
        traced.append(bench.run([str(HERE / "traced_cli.py"), str(tree), *bench.run_args()]))
        if not tree.exists() or not bench.rounds[-1]:
            raise SystemExit(f"traced run wrote no call tree:\n{bench.log.read_text()[-2000:]}")
        nodes = json.loads(tree.read_text())["nodes"]
        report = bench.reports[bench.rounds[-1]]
        for name, (value, unit) in layer_metrics(nodes, report, bench.specs).items():
            layers[name].append(value)
            units[name] = unit

    repeat(seconds, MIN_TRACED_ROUNDS, one_round)
    metrics = {name: {"value": statistics.median(values), "unit": units[name]}
               for name, values in layers.items()}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in ("src/fusionarith/casefile.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    import checks  # needs tests/oracles.py

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    bench = Bench(args.workload, args.seed)
    bench.validate()  # untimed: byte-compiles the package
    references = [checks.reference_for(spec) for spec in bench.specs]
    if args.trace:
        metrics = trace(bench, args.seconds)
    else:
        metrics = measure(bench, args.seconds)
    attempted, failed, correct = bench.verdicts(references)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
