#!/usr/bin/env python3
"""Pin the answers of the workloads at the default seed in baseline.json.

    python3 perfbench/pin.py [WORKLOAD ...]

The gate in run.py compares every run with these pins, so rerun this only
when a change of answers is intended, and review the diff of baseline.json:
it lists, per instance group, the outcome ("ok" or how it failed) and the
digest of the answers.  Refuses to pin a run whose answers break a check
that holds for any seed.
"""

from __future__ import annotations

import json
import sys

import run


def main(names: list[str]) -> int:
    if run.import_package() is None:
        return 2
    import workloads

    data = json.loads(run.BASELINE.read_text()) if run.BASELINE.exists() else {}
    data.setdefault("seed", run.DEFAULT_SEED)
    pins = data.setdefault("workloads", {})
    for name in names or run.WORKLOAD_NAMES:
        instances = workloads.WORKLOADS[name](run.DEFAULT_SEED, 0, run.WORKDIR / name)
        result = run.run_pass(instances, 0)
        if result.problems:
            print("\n".join(result.problems), file=sys.stderr)
            return 1
        pins[name] = result.groups
        failures = {g: v["outcome"] for g, v in pins[name].items() if v["outcome"] != "ok"}
        print(f"{name}: {len(pins[name])} groups pinned, failures: {failures}")
    run.BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
