"""Benchmark of the reproduction, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
of several fresh-interpreter set-ups (``setup_probe.py``); then untraced
passes of the workload run until they have taken ``--seconds`` in all (at
least one), and each metric is the median over the passes.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (see ``spans.py`` and ``report.py``).

Every pass's output is checked: against the digest recorded for the seed
in ``digests.json`` (when there is one), against the first pass, against
the untraced pass, and by the workload's own checks.  A mismatch counts as
a failed operation.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; spans, provenance and
the full result go to ``.perfbench_out/``.

Run ``python3 perfbench/record_digests.py`` to re-record the digests when
the program's outputs change on purpose.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before NumPy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# The program reads these; the benchmark runs without a store or faults.
for _var in ("REPRO_STORE", "REPRO_STORE_READONLY", "REPRO_STORE_CHAOS",
             "REPRO_CHAOS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: A probe that is not ready by then has failed.
PROBE_TIMEOUT_S = 60


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_grid", "proposed_sweep", "store_service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return parser.parse_args(argv)


def import_program() -> None:
    """Make ``src/`` of this checkout importable; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path[0:1] = [str(SRC), str(ROOT)]
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def measure_setup(workload: str, scratch: Path) -> List[float]:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    samples = []
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    for index in range(SETUP_PROBES):
        probe_dir = scratch / f"probe-{index}"
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(probe), workload, str(probe_dir)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def host_speed_s() -> float:
    """Best of three timings of a fixed pure-Python loop: a host speed
    index, so drift of the host between runs shows in their provenance."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        best = min(best, time.perf_counter() - start)
    return best


def provenance(passes: List[Any], speed: List[float]) -> Dict[str, Any]:
    import numpy
    import scipy

    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = done.stdout.strip() or None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "cpu_count": os.cpu_count(),
        "effective_cpus": len(os.sched_getaffinity(0)),
        "loadavg_per_pass": [p.loadavg for p in passes],
        "host_speed_s": speed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": revision,
        "src_lines": src_lines,
    }


def recorded_digests(workload: str, seed: int) -> Any:
    """The digests ``record_digests.py`` stored for a seed, if any."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return recorded.get(workload, {}).get(str(seed))


class Checker:
    """Collects output mismatches; each one is a failed operation."""

    def __init__(self, workload: Any, recorded: Any) -> None:
        self.workload = workload
        self.recorded = recorded
        self.first: Any = None
        self.mismatches: List[str] = []

    def check(self, label: str, result: Any) -> None:
        found = list(result.mismatches) + self.workload.check(result.output)
        if self.recorded is not None:
            actual = self.workload.digests(result.output)
            found += [f"{part} differs from its recorded digest"
                      for part in sorted(set(actual) | set(self.recorded))
                      if actual.get(part) != self.recorded.get(part)]
        if self.first is None:
            self.first = result.output
        elif result.output != self.first:
            found.append("output differs from the first pass")
        self.mismatches += [f"{label}: {message}" for message in found]


def run(args: argparse.Namespace, work_dir: Path,
        size: str = "full") -> Dict[str, Any]:
    """Measure one workload; ``size="tiny"`` is the self-test's job size,
    for which no digests are recorded."""
    from perfbench import report, spans
    from perfbench.workloads import WORKLOADS

    setup_samples: List[float] = []
    if not args.trace:
        setup_samples = measure_setup(args.workload, work_dir)
    workload = WORKLOADS[args.workload](args.seed, work_dir, size)
    recorded = recorded_digests(args.workload, args.seed) if size == "full" else None
    checker = Checker(workload, recorded)
    passes = []
    tracer = None
    speed = [host_speed_s()]
    if not args.trace:
        while not passes or sum(p.wall_s for p in passes) < args.seconds:
            passes.append(workload.run_pass())
            checker.check(f"pass {len(passes)}", passes[-1])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = report.end_to_end(passes, setup_samples, peak_rss_mb)
        units = report.END_TO_END
    else:
        passes.append(workload.run_pass())
        checker.check("untraced pass", passes[-1])
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            passes.append(workload.run_pass(tracer))
        finally:
            tracer.restore()
        checker.check("traced pass", passes[-1])
        metrics = report.per_layer(tracer, passes[1], passes[0])
        units = report.PER_LAYER
    speed.append(host_speed_s())
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + len(checker.mismatches))
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes),
        "setup_samples_s": setup_samples,
        "pass_wall_s": [p.wall_s for p in passes],
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "failed_ops_frac": failed / attempted,
        "mismatches": checker.mismatches,
        "digest_checked": checker.recorded is not None,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "layers": report.layer_table(tracer) if tracer is not None else [],
        "provenance": provenance(passes, speed),
        "tracer": tracer,
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    import_program()
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    tracer = result.pop("tracer")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json", {"workload": args.workload,
                                                  "seed": args.seed})
    for message in result["mismatches"]:
        print(f"MISMATCH {message}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_ops_frac':32s} {result['failed_ops_frac']:>16.6g} ratio")
    print(json.dumps({"provenance": result["provenance"]}, sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
