#!/usr/bin/env python3
"""returncast benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload demo_cycle --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from `src/` as it
stands (nothing is installed); the CLI workload runs
`python -m returncast.cli run-cycle` with `PYTHONPATH=src`.

A run sets up its inputs from `--seed` (a fresh-interpreter import, synth,
CSV writes and loads; three times, median reported as `setup_s`), warms the
process up, then runs one whole pass over the workload's cycles and more
passes, in a closed loop with one caller and no threads, until `--seconds`
have gone by.
Every report must pass `report.validate_report` and every repeat of a cycle
must give the same report bytes, or the same refusal, as its first run.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics; its spans are kept in
memory and written once, at the end, under `.bench_work/spans/`. Metric
names and units come from BENCHMARK.json; perfbench/README.md explains them.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "returncast" / "__init__.py").is_file():
        print(f"benchmark: no returncast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
