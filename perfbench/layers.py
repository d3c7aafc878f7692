"""The layers the trace attributes time to, and the per-layer metrics.

Each wrapped function is named ``<layer>.<fn>`` after the ``repro``
module that defines it; the traced run reports ``<name>.calls`` and
``<name>.self_ms`` for each, plus the counters and ratios in
:data:`COUNTERS`, and prints a self-time total per layer.  Counters come
from two places: hooks on the wrapped calls (rows a bag evaluation
produced, rows a snapshot carried) and the program's own stats surfaces
(``GET /tenants/<t>/stats``, ``serving_stats()``, ``cache_stats()``),
diffed around the measured phase so they cover measured work only.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _rows_out(tracer, args, result) -> None:
    tracer.counters["algebra.evaluate.rows_out"] += len(result)


def _rows_carried(tracer, args, result) -> None:
    # carry_rows(self, other, table_name, dead) returns nothing; the
    # carried rows are what the successor now holds for that table.
    # StoreState exposes no O(1) row count per table, so this reads the
    # row list it keeps.
    state, table_name = args[0], args[2]
    tracer.counters["relational.instances.rows_carried"] += len(
        getattr(state, "_rows", {}).get(table_name, ())
    )


def _checks(tracer, args, result) -> None:
    tracer.counters["incremental.checks_scheduled"] += len(result.check_names)


HTTP = "repro.service.http:ServiceRequestHandler"
CORE = "repro.service.core:SessionService"
ENGINE = "repro.engine:SessionEngine"
PLANS = "repro.query.plancache:PlanCache"
RESULTS = "repro.query.resultcache:ResultCache"
MEMORY = "repro.backend.memory:MemoryBackend"
SQLITE = "repro.backend.sqlite:SqliteBackend"

#: (metric name, wrap target, attribute, post-call counter hook)
WRAPS: List[Tuple[str, str, str, object]] = [
    ("service.http.do_POST", HTTP, "do_POST", None),
    ("service.http.reply", HTTP, "_reply", None),
    ("service.wire.query_from_json", "repro.service.wire", "query_from_json", None),
    ("service.wire.delta_script_from_json", "repro.service.wire",
     "delta_script_from_json", None),
    ("service.wire.encode", "repro.service.wire", "encode_result", None),
    ("service.core.query", CORE, "query", None),
    ("service.core.save_delta", CORE, "save_delta", None),
    ("engine.query_with_epoch", ENGINE, "query_with_epoch", None),
    ("engine.query_on", ENGINE, "query_on", None),
    ("engine.populate_live", ENGINE, "_populate_live", None),
    ("engine.apply_script", ENGINE, "apply_script", None),
    ("engine.evolve_many", ENGINE, "evolve_many", None),
    ("engine.undo", ENGINE, "undo", None),
    ("engine.commit", ENGINE, "_commit", None),
    ("query.plancache.plan_with_key", PLANS, "plan_with_key", None),
    ("query.plancache.plan_for", PLANS, "plan_for", None),
    ("query.plancache.successor", PLANS, "successor", None),
    ("query.plancache.execute", "repro.query.plancache:CachedPlan", "execute", None),
    ("query.unfold.construct_results", "repro.query.unfold", "construct_results", None),
    ("query.resultcache.lookup", RESULTS, "lookup", None),
    ("query.resultcache.populate", RESULTS, "populate", None),
    ("query.resultcache.successor_for_delta", RESULTS, "successor_for_delta", None),
    ("query.resultcache.successor", RESULTS, "successor", None),
    ("algebra.evaluate.evaluate_query_bag", "repro.algebra.evaluate",
     "evaluate_query_bag", _rows_out),
    ("backend.physical.execute", "repro.backend.physical:PhysicalPlanSet",
     "execute", None),
    ("backend.memory.to_store_state", MEMORY, "to_store_state", None),
    ("backend.memory.view_to_store_state", "repro.backend.memory:MemoryReadView",
     "to_store_state", None),
    ("backend.memory.apply_delta", MEMORY, "apply_delta", None),
    ("backend.memory.migrate", MEMORY, "migrate", None),
    ("backend.sqlite.execute_compiled", "repro.backend.sqlite", "execute_compiled", None),
    ("backend.sqlite.to_store_state", SQLITE, "to_store_state", None),
    ("backend.sqlite.apply_delta", SQLITE, "apply_delta", None),
    ("backend.sqlite.migrate", SQLITE, "migrate", None),
    ("backend.migrate.plan_migration", "repro.backend.migrate", "plan_migration", None),
    ("query.dml.apply_delta", "repro.query.dml", "apply_delta", None),
    ("relational.instances.carry_rows", "repro.relational.instances:StoreState",
     "carry_rows", _rows_carried),
    ("ivm.push_client_delta", "repro.ivm.writeplan", "push_client_delta", None),
    ("ivm.seed_counts", "repro.ivm.writeplan", "seed_counts", None),
    ("mapping.roundtrip.apply_query_views", "repro.mapping.roundtrip",
     "apply_query_views", None),
    ("mapping.roundtrip.apply_update_views", "repro.mapping.roundtrip",
     "apply_update_views", None),
    ("incremental.model.fingerprint", "repro.incremental.model:CompiledModel",
     "fingerprint", None),
    ("incremental.compile_batch", "repro.incremental.smo:IncrementalCompiler",
     "compile_batch", _checks),
    ("compiler.validation.validate_delta_neighborhood", "repro.compiler.validation",
     "validate_delta_neighborhood", None),
    ("compiler.scheduler.run", "repro.compiler.scheduler:ValidationScheduler",
     "run", None),
    ("containment.check_containment", "repro.containment.checker",
     "check_containment", None),
]

#: the benchmark's own client span around each operation; its self time
#: is transport plus client-side encoding, or library glue
CLIENT = "client.op"


def layer_totals(rollup: Dict[str, Tuple[int, float]]) -> Dict[str, float]:
    """Self ms per layer (a metric name minus its function)."""
    totals: Dict[str, float] = {}
    for name, (_, ms) in rollup.items():
        layer = name.rsplit(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + ms
    return totals


COUNTERS = [
    "service.http.bytes_out",
    "service.http.status_4xx",
    "service.http.status_5xx",
    "engine.read_retries",
    "engine.serialized_reads",
    "engine.epochs_published",
    "query.plancache.hit_ratio",
    "query.plancache.invalidations",
    "query.resultcache.hit_ratio",
    "query.resultcache.maintained",
    "query.resultcache.invalidated",
    "query.resultcache.fallbacks",
    "query.resultcache.evictions",
    "query.resultcache.cost_cells",
    "query.resultcache.rows_evaluated_per_row_returned",
    "backend.sqlite.statement_hit_ratio",
    "backend.physical.index_builds",
    "backend.physical.index_hit_ratio",
    "relational.instances.rows_carried_per_row_written",
    "ivm.writeplan_hit_ratio",
    "ivm.fallbacks",
    "incremental.checks_scheduled",
    "containment.cache_l1_hit_ratio",
    "containment.cache_l2_hit_ratio",
    "evolve.pass_drift_ratio",
    "trace.overhead_pct",
    "trace.attributed_ratio",
]


def metric_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names = []
    for name, *_ in WRAPS:
        names += [f"{name}.calls", f"{name}.self_ms"]
    names += [f"{CLIENT}.calls", f"{CLIENT}.self_ms"]
    return names + COUNTERS


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio") or name.endswith("per_row_returned") or name.endswith(
        "per_row_written"
    ):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("cost_cells"):
        return "cells"
    return "count"


def install(tracer) -> None:
    for name, target, attr, after in WRAPS:
        tracer.wrap(target, attr, name, after)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def flatten(stats, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested stats document, as ``a.b.c`` keys."""
    out: Dict[str, float] = {}
    if isinstance(stats, dict):
        for key, value in stats.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(stats, (int, float)) and not isinstance(stats, bool):
        out[prefix[:-1]] = float(stats)
    return out


def diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def summed(total: Dict[str, float], more: Dict[str, float]) -> Dict[str, float]:
    out = dict(total)
    for key, value in more.items():
        out[key] = out.get(key, 0.0) + value
    return out


def per_layer(tracer, stats: Dict[str, float], client: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced phase.

    *stats* is the summed stats-surface delta of the measured phase;
    *client* holds what the benchmark's client counted itself (rows
    returned and written, response bytes, status classes)."""
    rollup = tracer.rollup()
    values: Dict[str, float] = {}
    for name, *_ in WRAPS + [(CLIENT,)]:
        calls, self_ms = rollup.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = self_ms
    c = tracer.counters
    s = stats.get
    values.update(
        {
            "service.http.bytes_out": client.get("bytes_out", 0.0),
            "service.http.status_4xx": client.get("status_4xx", 0.0),
            "service.http.status_5xx": client.get("status_5xx", 0.0),
            "engine.read_retries": s("epoch.read_retries", 0.0),
            "engine.serialized_reads": s("epoch.serialized_reads", 0.0),
            "engine.epochs_published": s("epoch.epochs_published", 0.0),
            "query.plancache.hit_ratio": _ratio(
                s("plans.hits", 0.0), s("plans.hits", 0.0) + s("plans.misses", 0.0)
            ),
            "query.plancache.invalidations": s("plans.invalidations", 0.0),
            "query.resultcache.hit_ratio": _ratio(
                s("results.hits", 0.0),
                s("results.hits", 0.0) + s("results.misses", 0.0),
            ),
            "query.resultcache.maintained": s("results.maintained", 0.0),
            "query.resultcache.invalidated": s("results.invalidated", 0.0),
            "query.resultcache.fallbacks": s("results.fallbacks", 0.0),
            "query.resultcache.evictions": s("results.evictions", 0.0),
            "query.resultcache.cost_cells": client.get("cost_cells", 0.0),
            "query.resultcache.rows_evaluated_per_row_returned": _ratio(
                c["algebra.evaluate.rows_out"], client.get("rows_returned", 0.0)
            ),
            "backend.sqlite.statement_hit_ratio": _ratio(
                s("statements.hits", 0.0),
                s("statements.hits", 0.0) + s("statements.misses", 0.0),
            ),
            "backend.physical.index_builds": s("indexes.builds", 0.0),
            "backend.physical.index_hit_ratio": _ratio(
                s("indexes.hits", 0.0), s("indexes.hits", 0.0) + s("indexes.builds", 0.0)
            ),
            "relational.instances.rows_carried_per_row_written": _ratio(
                c["relational.instances.rows_carried"], client.get("rows_written", 0.0)
            ),
            "ivm.writeplan_hit_ratio": _ratio(
                s("writeplans.hits", 0.0),
                s("writeplans.hits", 0.0) + s("writeplans.misses", 0.0),
            ),
            "ivm.fallbacks": s("epoch.ivm_fallbacks", 0.0),
            "incremental.checks_scheduled": c["incremental.checks_scheduled"],
            "containment.cache_l1_hit_ratio": _ratio(
                s("validation.hits", 0.0),
                s("validation.hits", 0.0) + s("validation.misses", 0.0),
            ),
            "containment.cache_l2_hit_ratio": _ratio(
                s("validation.l2_hits", 0.0),
                s("validation.l2_hits", 0.0) + s("validation.l2_misses", 0.0),
            ),
            "evolve.pass_drift_ratio": client.get("pass_drift_ratio", 0.0),
        }
    )
    # the share of the traced end-to-end time the program's layers
    # account for; the client span's self time (transport, client-side
    # JSON, library glue) is the rest
    values["trace.attributed_ratio"] = _ratio(
        sum(ms for name, (_, ms) in rollup.items() if name != CLIENT), tracer.root_ms()
    )
    return values
