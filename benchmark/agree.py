#!/usr/bin/env python3
"""Checks that two sets of dear_e2e results agree within the benchmark's bounds.

    python3 benchmark/agree.py A B
    python3 benchmark/agree.py benchmark/baseline.json

A and B are dear_e2e --out files, directories holding such files, or
files of the form {"results": [...]}; one file of the form
{"sets": [{"results": [...]}, ...]} compares its first two sets. Results
pair up by (workload, traced). End-to-end timing metrics must agree within
their BENCHMARK.json bound, logical counts and error_rate exactly, and
both sides must have passed their correctness checks; other metrics are
shown but not gated. Prints a table and exits 1 on any disagreement, 2 on
unusable input.
"""
import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    path = Path(path)
    if path.is_dir():
        return [r for p in sorted(path.glob("*.json")) for r in load(p)]
    data = json.loads(path.read_text())
    if "results" in data:
        return data["results"]
    return [data]


def keyed(results):
    return {(r["workload"], r["traced"]): r for r in results}


def compare(a_results, b_results, bounds):
    a, b = keyed(a_results), keyed(b_results)
    rows, ok = [], True
    for key in sorted(a.keys() | b.keys()):
        workload = f"{key[0]}{' (traced)' if key[1] else ''}"
        if key not in a or key not in b:
            rows.append((workload, "-", "", "", "", "present on one side only", "DISAGREE"))
            ok = False
            continue
        ra, rb = a[key], b[key]
        for side, result in (("A", ra), ("B", rb)):
            if not result["correct"]:
                rows.append((workload, "correct", "", "", "", f"side {side} failed a check",
                             "DISAGREE"))
                ok = False
        for name in sorted(ra["metrics"].keys() | rb["metrics"].keys()):
            ma, mb = ra["metrics"].get(name), rb["metrics"].get(name)
            if ma is None or mb is None:
                rows.append((workload, name, "", "", "", "reported on one side only", "DISAGREE"))
                ok = False
                continue
            va, vb = ma["value"], mb["value"]
            delta = (vb - va) / va if va else (0.0 if vb == va else float("inf"))
            if name in bounds:
                rule, agrees = f"|delta| <= {bounds[name]:g}", abs(delta) <= bounds[name]
            elif ma["kind"] == "logical":
                rule, agrees = "exact", va == vb
            else:
                rule, agrees = "shown only", True
            ok = ok and agrees
            rows.append((workload, name, f"{va:.6g}", f"{vb:.6g}", f"{delta:+.2%}", rule,
                         "ok" if agrees else "DISAGREE"))
    return rows, ok


def main(argv):
    if len(argv) == 2:
        data = json.loads(Path(argv[1]).read_text())
        if len(data.get("sets", [])) < 2:
            print(f"agree.py: {argv[1]} holds no two result sets", file=sys.stderr)
            return 2
        a_results, b_results = data["sets"][0]["results"], data["sets"][1]["results"]
    elif len(argv) == 3:
        a_results, b_results = load(argv[1]), load(argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    if not a_results or not b_results:
        print("agree.py: no results to compare", file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in json.loads(SPEC.read_text())["end_to_end"]}
    rows, ok = compare(a_results, b_results, bounds)
    header = ("workload", "metric", "A", "B", "B vs A", "rule", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
