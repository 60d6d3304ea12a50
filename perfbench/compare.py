"""Compare two sets of benchmark runs.

Each set is a JSON-lines file written by ``run.py --out``: one line per
run, ``{"workload": ..., "seed": ..., "trace": 0|1, "result": {...}}``.
For every workload and metric the report gives each side's median and
quartiles (``statistics.quantiles(values, n=4)``), and whether the
medians separate by more than the first side's interquartile spread.
"""

import json
import statistics


def load(path):
    """Returns {(workload, trace): [result, ...]} from a JSON-lines file."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            runs.setdefault((row["workload"], int(row["trace"])), []).append(row["result"])
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(a_values, b_values):
    """One metric's comparison: both sides' quartiles and the verdict."""
    a = quartiles(a_values)
    b = quartiles(b_values)
    spread = a[2] - a[0]
    return {
        "a": a,
        "b": b,
        "a_spread_share": spread / a[1] if a[1] else float("inf"),
        "delta_share": (b[1] - a[1]) / a[1] if a[1] else float("inf"),
        "separates": abs(b[1] - a[1]) > spread,
    }


def compare(a_runs, b_runs):
    """Yields (workload, trace, metric, unit, comparison) for every metric
    present on both sides, plus a failed-share row per workload."""
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, trace = key
        a_list, b_list = a_runs[key], b_runs[key]
        names = sorted(set(a_list[0]["metrics"]) & set(b_list[0]["metrics"]))
        for name in names:
            a_vals = [r["metrics"][name]["value"] for r in a_list if name in r["metrics"]]
            b_vals = [r["metrics"][name]["value"] for r in b_list if name in r["metrics"]]
            unit = a_list[0]["metrics"][name]["unit"]
            yield workload, trace, name, unit, compare_metric(a_vals, b_vals)
        shares = []
        for runs in (a_list, b_list):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append((failed, attempted))
        yield workload, trace, "failed/attempted", "share", {"shares": shares}


def render(rows):
    lines = [
        "| workload | trace | metric | unit | A q1 / median / q3 | B q1 / median / q3 "
        "| A spread | B − A | separates |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for workload, trace, name, unit, c in rows:
        if "shares" in c:
            (fa, aa), (fb, ab) = c["shares"]
            lines.append(
                f"| {workload} | {trace} | {name} | {unit} | {fa}/{aa} | {fb}/{ab} "
                f"| | | {'yes' if fa * ab != fb * aa else 'no'} |"
            )
            continue
        a, b = c["a"], c["b"]
        lines.append(
            f"| {workload} | {trace} | {name} | {unit} "
            f"| {a[0]:.6g} / {a[1]:.6g} / {a[2]:.6g} "
            f"| {b[0]:.6g} / {b[1]:.6g} / {b[2]:.6g} "
            f"| {100 * c['a_spread_share']:.2f}% | {100 * c['delta_share']:+.2f}% "
            f"| {'yes' if c['separates'] else 'no'} |"
        )
    return "\n".join(lines)
