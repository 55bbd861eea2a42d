"""Print the verdicts of every certificate in golden JSON reports.

    python3 tests/golden_verdicts.py tests/golden/*.json > verdicts.txt

One line per certificate: its case, its candidate, each filter that ran
with its verdict, and the failing filter's `bound` or `discriminant`
when its witness has one.  A last line counts certificates, failures of
each filter, and witnesses carrying a bound or a discriminant.  Run it
on the golden files of two trees and diff the outputs: a change that
only rewrites witnesses keeps every line.
"""
from __future__ import annotations

import json
import sys
from collections import Counter

from witness_check import certificates


def verdict_lines(doc: dict):
    for report, cert in certificates(doc):
        last = cert["filters"][-1]
        witness = last["witness"] or {}
        kept = {k: witness[k] for k in ("bound", "discriminant") if k in witness}
        verdicts = " ".join(f"{f['name']}:{'pass' if f['passed'] else 'FAIL'}"
                            for f in cert["filters"])
        yield last, kept, f"{report['case']} {cert['candidate']} {verdicts} {json.dumps(kept)}"


def main(paths: list[str]) -> int:
    counts: Counter = Counter()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for last, kept, line in verdict_lines(doc):
            print(line)
            counts["certificates"] += 1
            if not last["passed"]:
                counts[f"failed {last['name']}"] += 1
            counts.update(f"with {k}" for k in kept)
    print(json.dumps(dict(sorted(counts.items()))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
