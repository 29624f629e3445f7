"""The repo benchmark: host time and simulated statistics per workload.

Run it from the repository root::

    python3 perfbench/run.py --workload paper-ppb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --manifest > BENCHMARK.json

One process replays the named workload (see ``catalog.py``) over and
over for ``--seconds`` seconds.  A workload run is ``build_trace`` ->
``execute_scenario`` -> ``summarize_result``, the path ``repro scenario
run`` takes.  Every run is checked: FTL invariants, request and response
counts, read and write time conservation, and a digest of the ``sim_*``
values that must repeat exactly for a trace.

``--trace 0`` cycles through the traces derived from ``--seed`` until
one repeats and the time is up, and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced runs of the first trace and
reports the per-layer metrics (see ``spans.py``) plus the cost of
tracing.  The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` count workload runs, ``metrics`` maps each metric name to
its value and unit.  Exits 2, printing no result, when the simulator
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see perfbench/catalog.py)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from catalog import WORKLOADS, manifest

    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    from measure import measure

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
