"""Compare two sets of benchmark results, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds full records, one JSON object per line, as written by
``run.py --out`` (or its captured standard output; other lines are
skipped). Runs of one workload are pooled across seeds. For every
metric the script prints both medians with their quartiles (Python's
``statistics.quantiles(values, n=4)``) and the ratio ``new / base``.
End-to-end metrics are judged against their bound in BENCHMARK.json:

* ``WORSE`` — the new median is worse than the base median by more
  than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, so the runs cannot tell a move from noise;
* ``ok`` otherwise.

Per-layer metrics have no bound and are printed for attribution only;
layers idle on a workload (0 in every run) are left out.
The script warns when the two files come from different hosts (cores,
CPU model, python or numpy version). It exits 1 if any metric is WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("cpu_cores", "cpu_model", "machine", "python", "numpy")


def read_records(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "workload" in record \
                and "metrics" in record:
            records.append(record)
    return records


def pooled(records: list[dict]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per run."""
    out: dict[str, dict[str, list[float]]] = {}
    for record in records:
        metrics = out.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(float(metric["value"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def hosts(records: list[dict]) -> set[tuple]:
    return {tuple(record.get("host", {}).get(key) for key in HOST_KEYS)
            for record in records}


def judge(base: list[float], new: list[float], rule: dict | None) -> str:
    if rule is None:
        return ""
    bound = rule["bound"]
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    base_median, new_median = quartiles(base)[1], quartiles(new)[1]
    change = (new_median - base_median) / abs(base_median)
    worse = change > bound if rule["better"] == "lower" else -change > bound
    return "WORSE" if worse else "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two benchmark result files.")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default="BENCHMARK.json",
                        help="where the end-to-end bounds are read from")
    args = parser.parse_args(argv)

    rules = {m["name"]: m for m in
             json.loads(Path(args.benchmark).read_text())["end_to_end"]}
    base_records, new_records = read_records(args.base), \
        read_records(args.new)
    base_hosts, new_hosts = hosts(base_records), hosts(new_records)
    if len(base_hosts | new_hosts) > 1:
        print("WARNING: results come from different hosts "
              f"({', '.join(HOST_KEYS)}):")
        for label, found in (("base", base_hosts), ("new", new_hosts)):
            for host in sorted(found, key=str):
                print(f"  {label}: {host}")
    base, new = pooled(base_records), pooled(new_records)
    any_worse = False
    for workload in sorted(set(base) & set(new)):
        runs = (len([r for r in base_records if r["workload"] == workload]),
                len([r for r in new_records if r["workload"] == workload]))
        print(f"\n{workload}  (runs: base {runs[0]}, new {runs[1]}; "
              "ratio = new / base)")
        print(f"  {'metric':34} {'base median [q1, q3]':>30} "
              f"{'new median [q1, q3]':>30} {'ratio':>7} "
              f"{'spread b/n':>11} {'bound':>6}  status")
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][name], new[workload][name]
            if not any(b) and not any(n):
                continue    # a layer idle on this workload
            bq, nq = quartiles(b), quartiles(n)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            rule = rules.get(name)
            status = judge(b, n, rule)
            any_worse |= status == "WORSE"
            print(f"  {name:34} "
                  f"{bq[1]:>12.5g} [{bq[0]:.4g}, {bq[2]:.4g}]".ljust(67)
                  + f"{nq[1]:>12.5g} [{nq[0]:.4g}, {nq[2]:.4g}]".ljust(31)
                  + f"{ratio:>7.3f} {spread(b):>5.3f}/{spread(n):<5.3f} "
                  + (f"{rule['bound']:>6}" if rule else " " * 6)
                  + f"  {status}")
    for workload in sorted(set(base) ^ set(new)):
        side = "base" if workload in base else "new"
        print(f"\n{workload}: only in {side}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
