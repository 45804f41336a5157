"""Record the output digests ``run.py`` checks each seed's outputs against.

Run from the repository root when the program's outputs change on purpose::

    python3 perfbench/record_digests.py --seeds 0:20
    python3 perfbench/record_digests.py --seeds 0:20 --workloads store_service

Each workload runs one untraced pass per seed (``store_service`` records
its in-process ``Workspace.run_sweeps`` result, which the service's result
must equal) and the digests are merged into ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import run  # noqa: E402  (pins the BLAS pools first)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0:20",
                        help="half-open range start:stop (default 0:20)")
    parser.add_argument("--workloads", nargs="*",
                        default=["paper_grid", "proposed_sweep", "store_service"])
    args = parser.parse_args(argv)
    start, stop = (int(part) for part in args.seeds.split(":"))
    run.import_program()
    from perfbench.workloads import WORKLOADS

    recorded = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    run.WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    try:
        for name in args.workloads:
            for seed in range(start, stop):
                workload = WORKLOADS[name](seed, work_dir)
                if name == "store_service":
                    output = workload.reference()
                else:
                    result = workload.run_pass()
                    if result.mismatches or result.failed:
                        raise SystemExit(f"{name} seed {seed}: {result.mismatches}")
                    output = result.output
                recorded.setdefault(name, {})[str(seed)] = workload.digests(output)
                print(f"{name} seed {seed} recorded", flush=True)
                run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
