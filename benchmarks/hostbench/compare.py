"""Compare two hostbench result files, metric by metric.

    python benchmarks/hostbench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the ratio
B / A *and its base* (A), and a verdict:

* ``ok`` — B is no worse than A by more than the metric's bound;
* ``regressed`` — it is;
* ``unresolved`` — a host metric whose own spread over the repetitions
  ((max - min) / median; for the wall-derived metrics this is
  ``run.wall_spread``) exceeds the bound on either side, so the
  comparison cannot tell.

For every host metric that moved by more than its bound, in either
direction, the three per-layer metrics that moved most are named (both
files need a traced block). Exit status 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END, Metric, beyond_bound, regressed

#: Derived or bookkeeping per-layer metrics: never named as "moved".
_NOT_ATTRIBUTABLE = ("trace.", "run.", "model.")


def verdict(metric: Metric, a: dict, b: dict) -> str:
    base, new = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
    if metric.clock == "host":
        for side in (a, b):
            median = side["end_to_end"][metric.name]
            # The repetitions of one side differ by more than the bound.
            if beyond_bound(metric, median, side["spread"][metric.name] * median):
                return "unresolved"
    return "regressed" if regressed(metric, base, new) else "ok"


def moved(metric: Metric, base: float, new: float) -> bool:
    """Changed by more than the bound, for better or for worse."""
    return regressed(metric, base, new) or regressed(metric, new, base)


def top_movers(a_layers: dict, b_layers: dict, count: int = 3) -> list[str]:
    """The per-layer metrics that moved most between two traced blocks.

    Self times are scored as a fraction of the base traced run; counts,
    which are exact, by relative change. Shares are derived from self
    times and skipped.
    """
    traced_wall = sum(
        value for name, value in a_layers.items() if name.endswith(".self_s")
    )
    scored = []
    for name, base in a_layers.items():
        new = b_layers.get(name)
        if name.endswith(".share") or name.startswith(_NOT_ATTRIBUTABLE) or new is None:
            continue
        scale = traced_wall if name.endswith(".self_s") else abs(base)
        if scale and new != base:
            scored.append((abs(new - base) / scale, name, base, new))
    scored.sort(reverse=True)
    return [
        f"{name} {base:.6g} -> {new:.6g}" for _, name, base, new in scored[:count]
    ]


def compare(a_doc: dict, b_doc: dict) -> list[dict]:
    """One row per (workload, metric): base, new, verdict, movers.

    A workload whose ``sim_digest`` differs gets an extra row with
    metric ``sim_digest`` and verdict ``changed``: the model's output is
    not the same, whatever the nine metrics say.
    """
    rows = []
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            continue
        if a["sim_digest"] != b["sim_digest"]:
            rows.append({
                "workload": name, "metric": "sim_digest", "verdict": "changed",
                "base": a["sim_digest"][:12], "new": b["sim_digest"][:12],
                "movers": [],
            })
        for metric in END_TO_END:
            base, new = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            traced = "per_layer" in a and "per_layer" in b
            rows.append({
                "workload": name, "metric": metric.name,
                "base": base, "new": new, "verdict": verdict(metric, a, b),
                "movers": (
                    top_movers(a["per_layer"], b["per_layer"])
                    if traced and metric.clock == "host" and moved(metric, base, new)
                    else []
                ),
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':26s} {'metric':17s} {'A (base)':>12s} {'B':>12s} "
        f"{'B/A':>7s}  verdict"
    ]
    for row in rows:
        base, new = row["base"], row["new"]
        if isinstance(base, str):
            lines.append(f"{row['workload']:26s} {row['metric']:17s} {base:>12s} "
                         f"{new:>12s} {'-':>7s}  {row['verdict']}")
            continue
        ratio = f"{new / base:7.3f}" if base else f"{'-':>7s}"
        lines.append(f"{row['workload']:26s} {row['metric']:17s} {base:12.5g} "
                     f"{new:12.5g} {ratio}  {row['verdict']}")
        lines += [f"{'':26s}   moved: {mover}" for mover in row["movers"]]
    return "\n".join(lines)


def count(rows: list[dict], verdict_: str) -> int:
    return sum(row["verdict"] == verdict_ for row in rows)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as handle:
            docs.append(json.load(handle))
    rows = compare(*docs)
    print(render(rows))
    print(f"{count(rows, 'regressed')} regressed, {count(rows, 'unresolved')} "
          f"unresolved, {count(rows, 'changed')} sim_digest changed")
    return 1 if count(rows, "regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
