"""Suite comparison: diff two result directories, gate on regressions.

``blockbench suite --compare BASE CURRENT`` is the CI primitive this
module implements: load every persisted run from two
:class:`~repro.core.suitestore.SuiteStore` directories, align them by
content-addressed spec hash (so grid order, parallelism, and partial
overlap don't matter), and compute per-point throughput and latency
deltas. A point *regresses* when current throughput falls more than
``threshold`` below base, or current average latency rises more than
``threshold`` above base — the simulator is deterministic per seed, so
any delta at all is a real behavioural change, and the threshold only
sets how much of one a pipeline tolerates. A point whose *base*
measured zero (nothing confirmed — e.g. a crash-fault grid point)
cannot regress: current is never below zero, and work appearing where
there was none is the improvement direction. Such appeared-from-zero
points are called out in the human output and carry ``null`` ratios
in the JSON so they are visible, just not gating.

The result renders both ways: :meth:`SuiteComparison.format` is the
human table, :meth:`SuiteComparison.to_json` the machine form a CI job
archives; the CLI exits 1 when ``regressions()`` is non-empty.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..errors import BenchmarkError
from .report import format_table
from .suitestore import SuiteStore

__all__ = ["RunDelta", "SuiteComparison", "compare_suites"]

COMPARE_SCHEMA = "blockbench-suite-compare/1"

#: Default regression tolerance: 5% on throughput and latency.
DEFAULT_THRESHOLD = 0.05


def _finite(ratio: float) -> float | None:
    """A ratio for JSON output: None replaces the non-encodable inf."""
    return ratio if math.isfinite(ratio) else None


def _point_label(spec: dict[str, Any]) -> str:
    """Human description of one grid point from its serialized spec."""
    text = (
        f"{spec['platform']}/{spec['workload']} "
        f"s={spec['n_servers']} c={spec['n_clients']} "
        f"r={spec['request_rate_tx_s']:g} seed={spec['seed']}"
    )
    if spec.get("label"):
        text += f" [{spec['label']}]"
    return text


@dataclass
class RunDelta:
    """One grid point present in both result sets."""

    spec_hash: str
    point: str
    base_throughput: float
    current_throughput: float
    base_latency_avg: float
    current_latency_avg: float
    #: Human-readable reasons this point regressed (empty = clean).
    failures: list[str]
    #: Safety-auditor violation counts (0 for runs persisted before the
    #: auditor existed).
    base_safety: int = 0
    current_safety: int = 0
    #: Per-stage mean-latency movement (current - base, seconds) from
    #: the lifecycle breakdowns, when both sides carry one.
    stage_deltas: dict[str, float] | None = None
    #: The stage with the largest positive movement — where a latency
    #: regression actually happened. None when no stage moved up or
    #: either side ran without tracing.
    regressed_stage: str | None = None

    @property
    def regressed(self) -> bool:
        return bool(self.failures)

    @property
    def throughput_ratio(self) -> float:
        """current/base throughput (1.0 when both sides are zero,
        infinite when work appeared from a zero base)."""
        if self.base_throughput == 0:
            return 1.0 if self.current_throughput == 0 else float("inf")
        return self.current_throughput / self.base_throughput

    @property
    def latency_ratio(self) -> float:
        """current/base average latency (1.0 when both sides are zero,
        infinite when latency appeared from a zero base)."""
        if self.base_latency_avg == 0:
            return 1.0 if self.current_latency_avg == 0 else float("inf")
        return self.current_latency_avg / self.base_latency_avg


def _delta(spec_hash: str, base: dict, current: dict, threshold: float) -> RunDelta:
    base_summary, cur_summary = base["summary"], current["summary"]
    delta = RunDelta(
        spec_hash=spec_hash,
        point=_point_label(base["spec"]),
        base_throughput=base_summary["throughput_tx_s"],
        current_throughput=cur_summary["throughput_tx_s"],
        base_latency_avg=base_summary["latency_avg_s"],
        current_latency_avg=cur_summary["latency_avg_s"],
        failures=[],
        # .get: directories written before the safety auditor existed.
        base_safety=base_summary.get("safety_violations", 0),
        current_safety=cur_summary.get("safety_violations", 0),
    )
    # Stage attribution: when both sides carry a breakdown (run files
    # written before tracing existed have none), pin the movement
    # to lifecycle stages so a regression names *where* it happened,
    # not just that the top line moved.
    base_bd = base_summary.get("stage_breakdown")
    cur_bd = cur_summary.get("stage_breakdown")
    if base_bd and cur_bd:
        base_avgs = {s["stage"]: s["avg_s"] for s in base_bd.get("stages", [])}
        cur_avgs = {s["stage"]: s["avg_s"] for s in cur_bd.get("stages", [])}
        shared_stages = [name for name in base_avgs if name in cur_avgs]
        if shared_stages:
            delta.stage_deltas = {
                name: cur_avgs[name] - base_avgs[name]
                for name in shared_stages
            }
            worst = max(shared_stages, key=lambda n: delta.stage_deltas[n])
            if delta.stage_deltas[worst] > 0:
                delta.regressed_stage = worst
    if delta.current_safety > delta.base_safety:
        # Safety is absolute — no tolerance applies. New violations on
        # a previously safe (or safer) point always gate.
        delta.failures.append(
            f"safety violations rose from {delta.base_safety} to "
            f"{delta.current_safety} (no tolerance on safety)"
        )
    if delta.base_throughput > 0:
        drop = 1.0 - delta.current_throughput / delta.base_throughput
        if drop > threshold:
            delta.failures.append(
                f"throughput {delta.current_throughput:.1f} tx/s is "
                f"{drop:.1%} below base {delta.base_throughput:.1f} tx/s "
                f"(tolerance {threshold:.1%})"
            )
    if delta.base_latency_avg > 0:
        rise = delta.current_latency_avg / delta.base_latency_avg - 1.0
        if rise > threshold:
            delta.failures.append(
                f"latency avg {delta.current_latency_avg:.3f}s is "
                f"{rise:.1%} above base {delta.base_latency_avg:.3f}s "
                f"(tolerance {threshold:.1%})"
            )
    if delta.failures and delta.regressed_stage is not None:
        moved = delta.stage_deltas[delta.regressed_stage]
        delta.failures.append(
            f"stage attribution: '{delta.regressed_stage}' moved "
            f"+{moved:.3f}s avg, the largest per-stage increase"
        )
    return delta


@dataclass
class SuiteComparison:
    """The aligned diff of two suite result directories."""

    base_dir: str
    current_dir: str
    threshold: float
    deltas: list[RunDelta]
    #: Spec hashes with a result on only one side (grid drift — e.g.
    #: an axis changed between the two campaigns). Reported, but not a
    #: regression: the gate's job is perf, not schema equality.
    only_in_base: list[str]
    only_in_current: list[str]
    #: True when the two directories shared no spec hashes directly
    #: and were aligned by *projected* hashes instead (bookkeeping
    #: fields like scenario name and grid-point label stripped) — the
    #: cross-scenario-file comparison mode.
    projected: bool = False

    def regressions(self) -> list[RunDelta]:
        return [delta for delta in self.deltas if delta.regressed]

    def appeared_from_zero(self) -> list[RunDelta]:
        """Points whose base measured zero but current did not.

        Not gateable (no ratio exists) and never a regression, but
        surfaced in both output forms: in a deterministic simulator a
        point going from "confirmed nothing" to "confirmed something"
        is a behavioural change worth a human look.
        """
        return [
            delta
            for delta in self.deltas
            if math.isinf(delta.throughput_ratio)
            or math.isinf(delta.latency_ratio)
        ]

    def to_json(self) -> dict[str, Any]:
        """Machine-readable comparison (``--compare ... --json``)."""
        return {
            "schema": COMPARE_SCHEMA,
            "base": self.base_dir,
            "current": self.current_dir,
            "threshold": self.threshold,
            "projected": self.projected,
            "compared": len(self.deltas),
            "regressed": len(self.regressions()),
            "only_in_base": self.only_in_base,
            "only_in_current": self.only_in_current,
            "results": [
                {
                    "spec_hash": delta.spec_hash,
                    "point": delta.point,
                    "base_throughput_tx_s": delta.base_throughput,
                    "current_throughput_tx_s": delta.current_throughput,
                    # Ratios are null when the base is zero: Infinity
                    # is not valid JSON and would break strict parsers
                    # downstream of the gate.
                    "throughput_ratio": _finite(delta.throughput_ratio),
                    "base_latency_avg_s": delta.base_latency_avg,
                    "current_latency_avg_s": delta.current_latency_avg,
                    "latency_ratio": _finite(delta.latency_ratio),
                    "base_safety_violations": delta.base_safety,
                    "current_safety_violations": delta.current_safety,
                    "regressed": delta.regressed,
                    "failures": delta.failures,
                    "regressed_stage": delta.regressed_stage,
                    "stage_deltas": delta.stage_deltas,
                }
                for delta in self.deltas
            ],
        }

    def format(self) -> str:
        """Render the diff as one ASCII table plus any drift notes."""
        rows = []
        for delta in self.deltas:
            rows.append(
                [
                    delta.point,
                    f"{delta.base_throughput:.1f}",
                    f"{delta.current_throughput:.1f}",
                    f"{delta.throughput_ratio:.3f}x",
                    f"{delta.base_latency_avg:.3f}",
                    f"{delta.current_latency_avg:.3f}",
                    f"{delta.latency_ratio:.3f}x",
                    f"{delta.base_safety}->{delta.current_safety}",
                    "REGRESSED" if delta.regressed else "ok",
                ]
            )
        table = format_table(
            ["point", "base tx/s", "cur tx/s", "tx ratio",
             "base lat (s)", "cur lat (s)", "lat ratio", "safety",
             "status"],
            rows,
            title=(
                f"suite compare: {self.base_dir} vs {self.current_dir} "
                f"({len(self.deltas)} points, tolerance {self.threshold:.1%})"
            ),
        )
        notes = []
        if self.projected:
            notes.append(
                "NOTE points aligned by projected spec hash (scenario "
                "name and label ignored) — the directories came from "
                "different scenario files"
            )
        for delta in self.appeared_from_zero():
            notes.append(
                f"NOTE {delta.point}: confirmed work appeared from a "
                "zero base — ratios not evaluable, point not gated"
            )
        if self.only_in_base:
            notes.append(
                f"{len(self.only_in_base)} point(s) only in base "
                f"({', '.join(self.only_in_base[:4])}"
                + ("..." if len(self.only_in_base) > 4 else "") + ")"
            )
        if self.only_in_current:
            notes.append(
                f"{len(self.only_in_current)} point(s) only in current "
                f"({', '.join(self.only_in_current[:4])}"
                + ("..." if len(self.only_in_current) > 4 else "") + ")"
            )
        for delta in self.regressions():
            for failure in delta.failures:
                notes.append(f"REGRESSION {delta.point}: {failure}")
        return table + ("\n" + "\n".join(notes) if notes else "")


#: Spec fields stripped before computing a projected hash: pure
#: bookkeeping the scenario engine stamps on each grid point. Two
#: scenario files sweeping the same physical axes differ exactly here.
_PROJECTION_EXCLUDED = ("scenario", "label")


def _projected_hash(spec: dict[str, Any]) -> str:
    """Content hash of a serialized spec minus bookkeeping fields.

    Same construction as :func:`~repro.core.suitestore.spec_hash`
    (sorted-key JSON, sha256, 16 hex chars) over the stored spec dict,
    so it works across code revisions — the JSON is the common
    language, not the live ExperimentSpec class.
    """
    data = {k: v for k, v in spec.items() if k not in _PROJECTION_EXCLUDED}
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _project_runs(
    runs: dict[str, dict[str, Any]], side: str
) -> dict[str, dict[str, Any]]:
    """Re-key one side's runs by projected hash, rejecting collisions.

    A collision means two grid points differ *only* in scenario name /
    label — aligning either with the other side would be arbitrary, so
    the comparison refuses rather than silently picking one.
    """
    projected: dict[str, dict[str, Any]] = {}
    for spec_hash_ in sorted(runs):
        data = runs[spec_hash_]
        key = _projected_hash(data["spec"])
        if key in projected:
            raise BenchmarkError(
                f"cannot align {side} by projected axes: runs "
                f"{projected[key]['spec_hash']} and {spec_hash_} differ "
                "only in scenario/label, so cross-file alignment would "
                "be ambiguous"
            )
        projected[key] = data
    return projected


def compare_suites(
    base_dir: str | Path,
    current_dir: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> SuiteComparison:
    """Align two result directories by spec hash and diff them.

    Directories produced by *different* scenario files never share a
    spec hash (the scenario name and point labels are hashed), even
    when they sweep identical physical axes. When the direct
    intersection is empty, alignment falls back to projected hashes —
    the serialized specs minus bookkeeping fields — and the result is
    flagged ``projected``.

    Raises :class:`BenchmarkError` when either side is not a result
    directory, or when even the projected intersection is empty — a
    comparison with zero overlap would "pass" vacuously, which is
    exactly the silent failure a CI gate must not allow.
    """
    if threshold < 0:
        raise BenchmarkError(
            f"comparison threshold must be non-negative, got {threshold}"
        )
    base_runs = SuiteStore.load_runs(base_dir)
    current_runs = SuiteStore.load_runs(current_dir)
    projected = False
    shared = sorted(set(base_runs) & set(current_runs))
    if not shared:
        base_runs = _project_runs(base_runs, "base")
        current_runs = _project_runs(current_runs, "current")
        shared = sorted(set(base_runs) & set(current_runs))
        projected = True
    if not shared:
        raise BenchmarkError(
            f"no grid points in common between {base_dir} and "
            f"{current_dir}, even after projecting away scenario "
            "names/labels; the directories sweep disjoint axes"
        )
    return SuiteComparison(
        base_dir=str(base_dir),
        current_dir=str(current_dir),
        threshold=threshold,
        deltas=[
            _delta(h, base_runs[h], current_runs[h], threshold) for h in shared
        ],
        only_in_base=sorted(set(base_runs) - set(current_runs)),
        only_in_current=sorted(set(current_runs) - set(base_runs)),
        projected=projected,
    )
