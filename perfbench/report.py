"""Metric definitions and how each is computed from passes and spans.

``END_TO_END`` and ``PER_LAYER`` list every metric with its unit, in the
order ``BENCHMARK.json`` declares them; the self-test holds the two equal.
Per-layer times named ``<layer>.<fn>_s`` are inclusive (they contain any
traced layer the function calls); ``*.self_s`` excludes nested traced
calls.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "scenarios_per_s": "1/s",
    "cold_job_s": "s",
    "warm_job_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER: Dict[str, str] = {
    "circuits.generate_s": "s",
    "circuits.generate_calls": "count",
    "netlist.plan_compiles": "count",
    "netlist.compile_plan_s": "s",
    "netlist.oer_evals": "count",
    "netlist.simulate_s": "s",
    "core.randomize_s": "s",
    "core.swaps_per_oer_eval": "ratio",
    "core.budget_steps_kept_frac": "ratio",
    "core.restore_s": "s",
    "core.lift_s": "s",
    "core.legalize_s": "s",
    "core.legalize_calls": "count",
    "core.ppa_eval_s": "s",
    "timing.sta_s": "s",
    "timing.power_s": "s",
    "layout.place_s": "s",
    "layout.route_s": "s",
    "layout.place_batch_s": "s",
    "layout.route_batch_s": "s",
    "layout.materializations": "count",
    "layout.materialize_s": "s",
    "defenses.build_s": "s",
    "sm.extract_feol_s": "s",
    "sm.extract_feol_calls": "count",
    "sm.open_connections": "count",
    "attacks.network_flow_s": "s",
    "attacks.crouting_s": "s",
    "attacks.proximity_s": "s",
    "attacks.calls": "count",
    "metrics.security_s": "s",
    "metrics.layout_s": "s",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.bytes_written": "bytes",
    "store.bytes_read": "bytes",
    "store.hit_frac": "ratio",
    "service.accept_ms": "ms",
    "service.overhead_s": "s",
    "service.requests": "count",
    "api.self_s": "s",
    "api.builds_run": "count",
    "api.build_hits": "count",
    "api.build_misses": "count",
    "api.scenario_misses": "count",
    "experiments.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.residual_s": "s",
    "trace.spans": "count",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(passes: List, setup_samples: List[float],
               peak_rss_mb: float) -> Dict[str, float]:
    """Medians over the passes of one run."""
    median = statistics.median
    return {
        "setup_s": median(setup_samples),
        "wall_s": median(p.wall_s for p in passes),
        "cpu_s": median(p.cpu_s for p in passes),
        "scenarios_per_s": median(p.scenarios / p.wall_s for p in passes),
        "cold_job_s": median(p.cold_job_s for p in passes),
        "warm_job_s": median(p.warm_job_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, traced, untraced) -> Dict[str, float]:
    """Layer metrics of one traced pass (``untraced`` is the same job run
    without tracing, for the overhead)."""
    stats = tracer.stats
    observed = tracer.observed

    def total(prefix: str) -> float:
        """Inclusive seconds of every traced name under ``prefix``."""
        return sum(stat.total_ns for name, stat in stats.items()
                   if name == prefix or name.startswith(prefix + "[")) / 1e9

    def calls(prefix: str) -> int:
        return sum(stat.calls for name, stat in stats.items()
                   if name == prefix or name.startswith(prefix + "["))

    oer_calls = calls("netlist.oer")
    randomize_calls = calls("core.randomize")
    post_calls = calls("service.post")
    job_s, in_workspace_s = 0.0, 0.0
    for phase, seconds in traced.service.get("job_s", {}).items():
        job_s += seconds
        in_workspace_s += sum(
            (span.end_ns - span.start_ns) / 1e9 for span in tracer.spans
            if span.name == "api.run_sweeps" and span.trace == phase)
    start_ns, end_ns = traced.window_ns
    return {
        "circuits.generate_s": total("circuits.generate"),
        "circuits.generate_calls": calls("circuits.generate"),
        "netlist.plan_compiles": observed.get("netlist.plan_compiles", 0),
        "netlist.compile_plan_s": total("netlist.compile_plan"),
        "netlist.oer_evals": oer_calls,
        "netlist.simulate_s": total("netlist.oer") + total("netlist.hd"),
        "core.randomize_s": total("core.randomize"),
        "core.swaps_per_oer_eval": _ratio(
            observed.get("core.swaps", 0), calls("netlist.oer[randomizer]")),
        "core.budget_steps_kept_frac": _ratio(calls("core.protect"), randomize_calls),
        "core.restore_s": total("core.restore"),
        "core.lift_s": total("core.lift"),
        "core.legalize_s": total("core.legalize"),
        "core.legalize_calls": calls("core.legalize"),
        "core.ppa_eval_s": total("core.ppa_eval"),
        "timing.sta_s": total("timing.sta"),
        "timing.power_s": total("timing.power"),
        "layout.place_s": total("layout.place"),
        "layout.route_s": total("layout.route"),
        "layout.place_batch_s": total("layout.place_batch"),
        "layout.route_batch_s": total("layout.route_batch"),
        "layout.materializations": calls("layout.materialize"),
        "layout.materialize_s": total("layout.materialize"),
        "defenses.build_s": total("defenses.build"),
        "sm.extract_feol_s": total("sm.extract_feol"),
        "sm.extract_feol_calls": calls("sm.extract_feol"),
        "sm.open_connections": observed.get("sm.open_connections", 0),
        "attacks.network_flow_s": total("attacks.network_flow"),
        "attacks.crouting_s": total("attacks.crouting"),
        "attacks.proximity_s": total("attacks.proximity"),
        "attacks.calls": sum(stat.calls for name, stat in stats.items()
                             if name.startswith("attacks.")),
        "metrics.security_s": total("metrics.security"),
        "metrics.layout_s": total("metrics.layout"),
        "store.save_s": total("store.save"),
        "store.load_s": total("store.load"),
        "store.bytes_written": observed.get("store.bytes_written", 0),
        "store.bytes_read": observed.get("store.bytes_read", 0),
        "store.hit_frac": _ratio(
            traced.stats.get("store_hits", 0),
            traced.stats.get("store_hits", 0) + traced.stats.get("store_misses", 0)),
        "service.accept_ms": _ratio(
            1e3 * sum(traced.service.get("accept_s", [])), post_calls),
        "service.overhead_s": job_s - in_workspace_s,
        "service.requests": traced.service.get("requests", 0),
        "api.self_s": tracer.self_seconds("api."),
        "api.builds_run": traced.stats.get("builds_run", 0),
        "api.build_hits": traced.stats.get("build_hits", 0),
        "api.build_misses": traced.stats.get("build_misses", 0),
        "api.scenario_misses": traced.stats.get("scenario_misses", 0),
        "experiments.self_s": tracer.self_seconds("experiments."),
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.residual_s": traced.wall_s - tracer.covered_seconds(start_ns, end_ns),
        "trace.spans": len(tracer.spans),
    }


def layer_table(tracer) -> List[Tuple[str, int, float, float]]:
    """(name, calls, inclusive s, self s) per traced name, by self time."""
    rows = [(name, stat.calls, stat.total_ns / 1e9, stat.self_ns / 1e9)
            for name, stat in tracer.stats.items()]
    return sorted(rows, key=lambda row: -row[3])
