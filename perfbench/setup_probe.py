"""Set-up probe: a fresh interpreter makes one workload ready, then exits.

``run.py`` starts this script several times and times each start until
the ``ready`` line: interpreter start, package imports, registry loading
and the Workspace (and, for ``store_service``, the HTTP service) started.

Usage: ``python3 perfbench/setup_probe.py <workload> <scratch dir>``
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str, scratch: Path) -> None:
    sys.path[0] = str(ROOT / "src")
    from repro.api.registry import ensure_builtins

    if workload == "paper_grid":
        from repro.api.workspace import default_workspace
        from repro.experiments.runner import run_all  # noqa: F401

        ensure_builtins()
        default_workspace()
        print("ready", flush=True)
    elif workload == "proposed_sweep":
        from repro.api.workspace import Workspace

        ensure_builtins()
        Workspace(store=None)
        print("ready", flush=True)
    elif workload == "store_service":
        from repro.api.workspace import Workspace
        from repro.service import ScenarioService

        ensure_builtins()
        service = ScenarioService(Workspace(store=scratch), jobs=1).start()
        print("ready", flush=True)
        service.stop()
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
