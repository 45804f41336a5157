"""Self-test of the benchmark, on tiny inputs.

Run from the repository root (about two minutes on two cores)::

    python3 perfbench/selftest.py

It checks that:

* ``BENCHMARK.json`` declares exactly the workloads and metrics (with
  units) the benchmark emits, and every run emits each of them;
* every workload is correct on tiny inputs, traced and untraced;
* every child span lies inside its parent's interval, on its thread;
* layers a workload bypasses read zero, and the layers it exists for don't;
* a perturbed output trips the output checks;
* ``run_all`` at the configuration the golden tables were recorded at
  (``tests/golden/*.json``) reproduces their columns and rows.

Exits 1 and lists the failures when any check does not hold.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import run as bench  # noqa: E402  (pins the BLAS pools first)

#: Per-layer metrics that must read zero on a workload that bypasses them.
BYPASSED: Dict[str, List[str]] = {
    "paper_grid": [
        "store.save_s", "store.load_s", "store.bytes_written", "store.bytes_read",
        "service.requests", "service.accept_ms",
    ],
    "proposed_sweep": [
        "attacks.network_flow_s", "attacks.crouting_s", "defenses.build_s",
        "store.save_s", "store.load_s", "store.bytes_written", "store.bytes_read",
        "service.requests", "experiments.self_s",
    ],
    "store_service": [
        "netlist.plan_compiles", "netlist.compile_plan_s", "netlist.oer_evals",
        "netlist.simulate_s", "core.randomize_s", "core.restore_s", "core.lift_s",
        "core.legalize_calls", "core.ppa_eval_s", "timing.sta_s",
        "attacks.calls", "defenses.build_s", "sm.extract_feol_calls",
        "experiments.self_s",
    ],
}

#: Per-layer metrics that must read above zero on the workload they are
#: heavy on.
EXERCISED: Dict[str, List[str]] = {
    "paper_grid": [
        "attacks.network_flow_s", "attacks.crouting_s", "defenses.build_s",
        "netlist.oer_evals", "layout.materializations", "experiments.self_s",
        "core.randomize_s", "sm.extract_feol_calls",
    ],
    "proposed_sweep": [
        "core.randomize_s", "core.restore_s", "core.lift_s", "core.legalize_calls",
        "core.ppa_eval_s", "timing.sta_s", "timing.power_s", "netlist.plan_compiles",
        "attacks.proximity_s", "api.builds_run",
    ],
    "store_service": [
        "store.save_s", "store.load_s", "store.bytes_written", "store.bytes_read",
        "store.hit_frac", "service.requests", "service.accept_ms",
        "layout.place_batch_s", "layout.route_batch_s", "circuits.generate_calls",
        "metrics.layout_s",
    ],
}

failures: List[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def check_declared(report, workloads) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in declared["end_to_end"]} == report.END_TO_END,
           "BENCHMARK.json end_to_end differs from report.END_TO_END")
    expect({m["name"]: m["unit"] for m in declared["per_layer"]} == report.PER_LAYER,
           "BENCHMARK.json per_layer differs from report.PER_LAYER")
    expect([w["name"] for w in declared["workloads"]] == list(workloads),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_spans(name: str, tracer) -> None:
    by_id = {span.id: span for span in tracer.spans}
    for span in tracer.spans:
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        expect(parent is not None, f"{name}: span {span.name} has an unknown parent")
        if parent is None:
            continue
        expect(parent.thread == span.thread
               and parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns,
               f"{name}: span {span.name} lies outside its parent {parent.name}")


def check_runs(report, workloads, work_dir: Path) -> None:
    for name in workloads:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=3, seconds=0, trace=trace)
            result = bench.run(args, work_dir, size="tiny")
            label = f"{name} trace={trace}"
            print(f"ran {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
            expect(result["correct"] and result["attempted"] > 0,
                   f"{label}: not correct: {result['mismatches']}")
            units = report.PER_LAYER if trace else report.END_TO_END
            for metric, unit in units.items():
                entry = result["metrics"].get(metric)
                expect(entry is not None and entry["unit"] == unit
                       and math.isfinite(entry["value"]),
                       f"{label}: metric {metric} missing, mis-unit or not finite")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                expect(all(values[m] > 0 for m in units),
                       f"{label}: an end-to-end metric reads zero: {values}")
                continue
            check_spans(label, result["tracer"])
            for metric in BYPASSED[name]:
                expect(values[metric] == 0, f"{label}: bypassed {metric} = {values[metric]}")
            for metric in EXERCISED[name]:
                expect(values[metric] > 0, f"{label}: exercised {metric} reads zero")


def perturb(value: Any) -> bool:
    """Change the first number inside ``value`` in place; True if found."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            value[key] = item + 1
            return True
        if perturb(item):
            return True
    return False


def check_perturbation(workloads, work_dir: Path) -> None:
    for name, cls in workloads.items():
        workload = cls(3, work_dir, "tiny")
        result = workload.run_pass()
        checker = bench.Checker(workload, workload.digests(result.output))
        checker.check("pass", result)
        expect(not checker.mismatches, f"{name}: clean pass mismatched: {checker.mismatches}")
        broken = copy.deepcopy(result)
        expect(perturb(broken.output), f"{name}: output has no number to perturb")
        checker.check("perturbed", broken)
        found = " | ".join(checker.mismatches)
        expect("recorded digest" in found and "first pass" in found,
               f"{name}: perturbed output passed the checks ({found!r})")


def check_golden(workloads_module) -> None:
    from repro.api.workspace import reset_default_workspace
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import EXPERIMENTS, run_all

    goldens = {}
    for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("experiment") in EXPERIMENTS:
            goldens[data["experiment"]] = data
    expect(set(goldens) == set(EXPERIMENTS), "a golden table is missing")
    configs = {json.dumps(g["config"], sort_keys=True) for g in goldens.values()}
    expect(len(configs) == 1, "golden tables use more than one configuration")
    reset_default_workspace()
    config = ExperimentConfig.from_dict(json.loads(configs.pop()))
    tables = workloads_module.table_rows(run_all(config, jobs=1))
    for name, golden in goldens.items():
        want = {"columns": golden["table"]["columns"], "rows": golden["table"]["rows"]}
        expect(tables[name] == want, f"golden {name}: run_all rows/columns differ")
    print(f"checked {len(goldens)} golden tables", flush=True)


def main() -> int:
    bench.import_program()
    from perfbench import report, workloads

    bench.WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.WORK))
    try:
        check_declared(report, workloads.WORKLOADS)
        check_runs(report, workloads.WORKLOADS, work_dir)
        check_perturbation(workloads.WORKLOADS, work_dir)
        check_golden(workloads)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            bench.WORK.rmdir()
        except OSError:
            pass
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
