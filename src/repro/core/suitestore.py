"""Content-addressed, resumable storage for scenario-suite runs.

A measurement campaign over a big grid (the paper's Figures 5-19 are
platform x workload x cluster-size x rate sweeps) can take hours; a
killed process used to mean starting over. This module gives every
:class:`~repro.core.runner.ExperimentSpec` a *stable content hash* —
every axis value, the seed, the fault schedule, and any platform-config
overrides — and persists each finished run to
``<out_dir>/runs/<hash>.json``. Re-running the same suite with
``resume=True`` then loads the grid points whose files already exist
and executes only the missing ones, producing a
:class:`~repro.core.scenario.SuiteResult` identical to an uninterrupted
run (the simulator is deterministic per seed, and nothing wall-clock
dependent is persisted).

The same hash is the join key for ``blockbench suite --compare``
(:mod:`repro.core.compare`): two result directories align run-by-run
exactly when their specs are byte-equal, however the grids were
ordered or parallelized.

Layout of a result directory::

    out_dir/
      runs/<spec-hash>.json   one file per completed grid point
      suite.json              manifest: merged summary + run hashes

Run files are written atomically (temp file + rename), so a crash
mid-write never leaves a truncated file that a later ``--resume`` would
trust; an unreadable or mismatched file is treated as missing and the
point is simply re-run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import BenchmarkError
from .runner import ExperimentResult, ExperimentSpec
from .stats import StatsCollector, StatsSummary
from .trace import StageBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import SuiteResult

__all__ = [
    "RUN_SCHEMA",
    "MANIFEST_SCHEMA",
    "SuiteStore",
    "spec_hash",
    "spec_to_dict",
    "result_to_dict",
    "result_from_dict",
]

#: Per-run result file schema identifier; bump on incompatible change.
RUN_SCHEMA = "blockbench-suite-run/1"
#: Suite manifest (``suite.json``) schema identifier.
MANIFEST_SCHEMA = "blockbench-suite/1"


# ---------------------------------------------------------------------------
# Canonical spec serialization and hashing
# ---------------------------------------------------------------------------
def _canonical_faults(faults: Any) -> dict[str, Any] | None:
    """JSON-shaped fault schedule, minus runtime state."""
    if faults is None:
        return None
    data = asdict(faults)
    # Filled in while a schedule is armed against a cluster; two specs
    # with the same *planned* faults must hash identically.
    data.pop("crashed_node_ids", None)
    data.pop("byzantine_node_ids", None)
    # The byzantines list postdates the run-file schema: empty, it is
    # omitted so every fault-bearing spec hashed before it existed keeps
    # its hash (committed baselines, resumable result directories).
    if not data.get("byzantines"):
        data.pop("byzantines", None)
    # CrashFault's recovery fields postdate the schema too: stripped at
    # their defaults so a plain crash spec hashed before recover_at
    # existed keeps its hash. ``count`` went from required to optional
    # in the same change — it can only be None on a new-style entry.
    for crash in data.get("crashes", []):
        for name, default in (
            ("count", None),
            ("nodes", None),
            ("recover_at", None),
            ("recovery_mode", "warm"),
        ):
            if name in crash and crash[name] == default:
                del crash[name]
    return data


def spec_to_dict(spec: ExperimentSpec) -> dict[str, Any]:
    """Every field of ``spec`` as JSON-serializable values.

    The dict is the canonical form: :func:`spec_hash` hashes it, and
    run files embed it so a result directory is self-describing.
    """
    data: dict[str, Any] = {}
    for field_ in fields(ExperimentSpec):
        value = getattr(spec, field_.name)
        if field_.name == "faults":
            value = _canonical_faults(value)
        if field_.metadata.get("omit_at_default") and value == field_.default:
            continue
        data[field_.name] = value
        # Run-file schema/1 constants, each at the position its field
        # held: there is one client implementation and no platform
        # config object any more, but every spec hash, committed
        # baseline and pinned digest includes these pairs.
        if field_.name == "retry_interval_s":
            data["client_mode"] = "coroutine"
        elif field_.name == "faults":
            data["config"] = None
    return data


def spec_hash(spec: ExperimentSpec) -> str:
    """Stable content address of one grid point.

    SHA-256 over the sorted-key JSON of :func:`spec_to_dict`, truncated
    to 16 hex chars. Identical across processes, interpreter restarts,
    and platforms: ``json.dumps`` of the same primitives is
    deterministic (``repr``-based float formatting is exact round-trip
    text since Python 3.1), and dataclass field order never enters —
    keys are sorted.
    """
    canon = json.dumps(
        spec_to_dict(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Result (de)serialization
# ---------------------------------------------------------------------------
def _summary_to_dict(summary: StatsSummary) -> dict[str, Any]:
    """``asdict`` with the stage breakdown omitted when the summary has
    none (one loaded from a run file written before tracing existed
    re-serializes to the same bytes). Recovery metrics are omitted when
    nothing recovered during the run."""
    data = asdict(summary)
    if data.get("stage_breakdown") is None:
        data.pop("stage_breakdown", None)
    if not data.get("recovery_time_s"):
        data.pop("recovery_time_s", None)
        if not (
            data.get("sync_requests")
            or data.get("sync_blocks")
            or data.get("sync_bytes")
        ):
            data.pop("sync_requests", None)
            data.pop("sync_blocks", None)
            data.pop("sync_bytes", None)
    return data


def result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """The persistable view of one finished run.

    Everything ``SuiteResult`` consumes — the summary and the
    cluster-level measurements — plus the queue series. The raw
    :class:`StatsCollector` (per-transaction latencies) is *not*
    persisted: it is unbounded in the duration and nothing downstream
    of a merged suite reads it. No wall-clock fields exist anywhere in
    the payload, so a resumed suite is byte-identical to an
    uninterrupted one.
    """
    return {
        "schema": RUN_SCHEMA,
        "spec_hash": spec_hash(result.spec),
        "spec": spec_to_dict(result.spec),
        "summary": _summary_to_dict(result.summary),
        "queue_series": [list(sample) for sample in result.queue_series],
        "chain_height": result.chain_height,
        "total_blocks": result.total_blocks,
        "main_branch_blocks": result.main_branch_blocks,
        "mean_cpu_pct": result.mean_cpu_pct,
        "mean_net_mbps": result.mean_net_mbps,
        "view_changes": result.view_changes,
        "stale_executions": result.stale_executions,
        "safety_violations": result.safety_violations,
        "safety_report": result.safety_report,
    }


def result_from_dict(
    data: dict[str, Any], spec: ExperimentSpec
) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a run file's payload.

    ``spec`` is the *live* spec the suite expanded (the file was found
    by its hash), so lookups over a resumed ``SuiteResult`` compare
    against real objects — including fault schedules, which the JSON
    form only approximates. The rebuilt stats collector carries the
    counters but not per-transaction latencies (see
    :func:`result_to_dict`).
    """
    summary_data = dict(data["summary"])
    breakdown = summary_data.get("stage_breakdown")
    if breakdown is not None:
        # Stored as the asdict tree; rebuild the dataclass so a resumed
        # suite serializes identically to a live one.
        summary_data["stage_breakdown"] = StageBreakdown.from_dict(breakdown)
    summary = StatsSummary(**summary_data)
    stats = StatsCollector(platform=summary.platform, workload=summary.workload)
    stats.submitted = summary.submitted
    stats.rejected = summary.rejected
    stats.finish(summary.duration_s)
    return ExperimentResult(
        spec=spec,
        summary=summary,
        stats=stats,
        queue_series=[tuple(sample) for sample in data["queue_series"]],
        chain_height=data["chain_height"],
        total_blocks=data["total_blocks"],
        main_branch_blocks=data["main_branch_blocks"],
        mean_cpu_pct=data["mean_cpu_pct"],
        mean_net_mbps=data["mean_net_mbps"],
        view_changes=data["view_changes"],
        stale_executions=data["stale_executions"],
        # .get: run files written before the safety auditor existed.
        safety_violations=data.get("safety_violations", 0),
        safety_report=data.get("safety_report"),
    )


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------
class SuiteStore:
    """One result directory: ``runs/<hash>.json`` files + a manifest."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec: ExperimentSpec) -> Path:
        return self.runs_dir / f"{spec_hash(spec)}.json"

    def load(self, spec: ExperimentSpec) -> ExperimentResult | None:
        """The stored result for ``spec``, or None if absent/unusable.

        Unusable covers truncated JSON, a wrong schema, and a file
        whose embedded hash disagrees with its name — all treated as
        "not run yet" so ``--resume`` degrades to re-running the point
        rather than trusting a damaged file.
        """
        path = self.path_for(spec)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("schema") != RUN_SCHEMA
            or data.get("spec_hash") != path.stem
        ):
            return None
        try:
            return result_from_dict(data, spec)
        except (KeyError, TypeError):
            return None

    def save(self, result: ExperimentResult) -> Path:
        """Persist one finished run atomically; returns the file path."""
        path = self.path_for(result.spec)
        payload = json.dumps(result_to_dict(result), indent=2) + "\n"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(payload)
        os.replace(tmp, path)
        return path

    def write_manifest(self, suite_result: "SuiteResult") -> Path:
        """Write ``suite.json``: the merged summary plus run hashes."""
        payload = {
            "schema": MANIFEST_SCHEMA,
            "run_hashes": [spec_hash(r.spec) for r in suite_result.results],
            **suite_result.to_json(),
        }
        path = self.root / "suite.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, path)
        return path

    def gc(self, keep_hashes: set[str]) -> list[Path]:
        """Remove run files whose spec hash is not in ``keep_hashes``.

        The pruning half of the store lifecycle: when a scenario grid
        changes (an axis dropped, a rate retuned), the old grid
        points' run files linger and would silently inflate any
        directory-level comparison. Returns the paths removed, sorted.
        ``suite.json`` is left alone — the next ``run()`` against the
        store rewrites it from the live grid.

        Anything in ``runs/`` that is not a well-formed run file
        (``*.json.tmp`` droppings, foreign files) is untouched: gc
        only ever deletes what the store itself wrote.
        """
        removed: list[Path] = []
        for path in sorted(self.runs_dir.glob("*.json")):
            if path.stem in keep_hashes:
                continue
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if (
                isinstance(data, dict)
                and data.get("schema") == RUN_SCHEMA
                and data.get("spec_hash") == path.stem
            ):
                path.unlink()
                removed.append(path)
        return removed

    @staticmethod
    def load_runs(root: str | Path) -> dict[str, dict[str, Any]]:
        """All valid run payloads in a result directory, keyed by hash.

        The entry point for ``--compare``: it needs the raw dicts (two
        directories may come from different code revisions, so the live
        ``ExperimentSpec`` class is not the common language — the JSON
        is). Raises when the directory has no runs at all; silently
        skips individual files that fail validation the same way
        :meth:`load` would.
        """
        runs_dir = Path(root) / "runs"
        if not runs_dir.is_dir():
            raise BenchmarkError(
                f"{root} is not a suite result directory (no runs/ inside); "
                "expected the --out-dir of a previous 'blockbench suite' run"
            )
        runs: dict[str, dict[str, Any]] = {}
        for path in sorted(runs_dir.glob("*.json")):
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if (
                isinstance(data, dict)
                and data.get("schema") == RUN_SCHEMA
                and data.get("spec_hash") == path.stem
            ):
                runs[path.stem] = data
        if not runs:
            raise BenchmarkError(f"no valid run files under {runs_dir}")
        return runs
