#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of conceptlab.

    python3 perfbench/run.py --workload ds-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from ``src``.
The workloads are described in ``workloads.py``.  One process, one thread,
a closed loop with one caller: the next instance starts when the previous
one returns.  The timed phase runs whole passes over the workload's
instances, each pass on inputs built for it, at least four passes and
until their summed time reaches ``--seconds``.  Each instance is timed from
the call to its answer, and its latency is the median over the passes
(``answers_per_s`` is the instances of a pass over the sum of these); its
answer is checked outside that time, and compared with the answers pinned
in ``baseline.json`` (see ``pin.py``).  An
instance still running after DEADLINE_S has failed; it is not attempted
again in the same run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` ignores
``--seconds``: it runs one untraced pass and then two traced passes on the
same inputs, and reports the per-layer metrics, the tracing overhead, and
which end-to-end metric each layer should move.  ``--workload all`` runs
every workload, each in a fresh process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a JSON
report with the environment, the gate, the known failures and the sample
counts.  A tree without ``src/conceptlab`` gives exit status 2 and no
result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
WORKDIR = Path(".perfbench_work")
WORKLOAD_NAMES = ("ds-sweep", "dim-search", "certify")
DEFAULT_SEED = 0
DEADLINE_S = 10.0
"""Fixed per-instance deadline; an instance still running then has failed."""
SETUP_REPEATS = 5
TRACED_PASSES = 2
MIN_PASSES = 4
"""Every instance is timed at least four times, spread over the run."""

# Functions each workload must reach; a traced run where one of them
# records no call fails.
REQUIRED = {
    "ds-sweep": (
        "core.ConceptClass",
        "dimensions.ds_shatters",
        "dimensions.ds_shatters_bruteforce",
        "kernels.ds_fixpoint",
        "kernels.ds_bruteforce_mask",
    ),
    "dim-search": (
        "dimensions.dimension",
        "dimensions.ds_shatters",
        "dimensions.n_shatters",
        "dimensions.g_shatters",
        "dimensions.vc_shatters",
        "dimensions.ShatterWitness.verify",
        "kernels.ds_fixpoint",
    ),
    "certify": (
        "cli.main",
        "core.Sample",
        "core.enumerate_realizable_samples",
        "compression.verify_scheme",
        "compression.compress",
        "compression.reconstruct",
        "compression.boosted_scheme",
        "compression.extract_disambiguation",
        "compression.min_compression_certificate",
        "compression.key_search",
        "lowerbound.pipeline_certificate",
        "lowerbound.chromatic_number",
    ),
}

# Layer metric -> the end-to-end metric it should move, and where.
TARGETS = {
    "core.ConceptClass": "answers_per_s on ds-sweep (one class per instance); near zero on dim-search and certify",
    "core.Sample": "answers_per_s and peak_rss_mb on certify; zero on ds-sweep and dim-search",
    "core.enumerate_realizable_samples": "answers_per_s and peak_rss_mb on certify; zero on ds-sweep and dim-search",
    "dimensions.ds_shatters": "answers_per_s and answer_p50_ms on ds-sweep; small on dim-search",
    "dimensions.ds_shatters_bruteforce": "answers_per_s and answer_p50_ms on ds-sweep",
    "dimensions.dimension": "answer_tail_ms and answers_per_s on dim-search",
    "dimensions.n_shatters": "answer_tail_ms and answers_per_s on dim-search",
    "dimensions.g_shatters": "answer_tail_ms and answers_per_s on dim-search",
    "dimensions.vc_shatters": "answer_tail_ms and answers_per_s on dim-search",
    "dimensions.ShatterWitness.verify": "answer_tail_ms and answers_per_s on dim-search",
    "kernels.ds_fixpoint": "answers_per_s on ds-sweep (inputs repeat, a memo should pay); no change on dim-search (inputs rarely repeat)",
    "kernels.ds_bruteforce_mask": "answers_per_s on ds-sweep; no change on dim-search",
    "compression.verify_scheme": "answers_per_s and answer_p50_ms on certify",
    "compression.compress": "answers_per_s and answer_p50_ms on certify",
    "compression.reconstruct": "answers_per_s and answer_p50_ms on certify",
    "compression.boosted_scheme": "answers_per_s and answer_p50_ms on certify",
    "compression.extract_disambiguation": "answers_per_s and answer_p50_ms on certify",
    "compression.min_compression_certificate": "answers_per_s and answered_frac on certify; zero elsewhere",
    "compression.key_search": "answers_per_s and answered_frac on certify; zero elsewhere",
    "lowerbound.pipeline_certificate": "answers_per_s on certify",
    "lowerbound.chromatic_number": "answers_per_s on certify; no change expected while it is capped at 10 vertices",
    "cli.main": "answer_p50_ms on certify (argument parsing, JSON load and emit)",
}


class DeadlineExceeded(BaseException):
    """Raised by the timer signal inside an instance that ran too long.

    A BaseException, so no handler in the package can swallow it."""


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class PassResult:
    pass_index: int  # which inputs the pass ran (see workloads.py)
    latencies: dict  # instance id -> seconds from call to answer, in order
    failures: dict  # instance id -> outcome, for instances that failed
    groups: dict  # group -> {"outcome", "digest", "invariant"}
    problems: list  # broken checks that hold for any seed


def settle() -> None:
    """Keep the instances of a pass out of the collector's scans, so that
    collections cost what they would without the benchmark around."""
    gc.collect()
    gc.freeze()


def run_pass(instances, pass_index: int, tracer=None) -> PassResult:
    """One closed-loop pass over the instances; checks run untimed."""
    result = PassResult(pass_index, {}, {}, {}, [])
    hashes: dict = {}
    invariants: dict = {}
    for inst in instances:
        if tracer is not None:
            tracer.calls[tracing.ROOT] += 1
            depth = tracer.push(tracing.ROOT)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            answer = inst.run()
            failure = None
        except DeadlineExceeded:
            failure = "deadline"
        except Exception as exc:  # an instance that raises has failed
            failure = f"raised {type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            result.latencies[inst.id] = time.perf_counter() - start
            if tracer is not None:
                tracer.pop(depth)
                tracer.on = False
        if failure is None:
            outcome, digest, invariant, problems = inst.check(answer)
            result.problems.extend(f"{inst.id}: {p}" for p in problems)
        else:
            outcome, digest, invariant = failure, failure, None
        if tracer is not None:
            tracer.on = True
        if outcome != "ok":
            result.failures[inst.id] = outcome
        group = result.groups.setdefault(inst.group, {"outcome": "ok"})
        if group["outcome"] == "ok":
            group["outcome"] = outcome
        hashes.setdefault(inst.group, hashlib.sha256()).update(digest.encode())
        invariants.setdefault(inst.group, []).append(invariant)
    for name, digest in hashes.items():
        found = invariants[name]
        result.groups[name]["digest"] = digest.hexdigest()
        result.groups[name]["invariant"] = found[0] if len(found) == 1 else None
    return result


def gate(args, instances, passes, pins) -> tuple[list, list]:
    """Problems that fail the run, and the failures the baseline knows."""
    varies = {i.group: i.varies for i in instances}
    pinned = pins.get(args.workload, {})
    problems: dict = {}  # ordered set: a pass may repeat another's problem
    known: dict = {}
    for result in passes:
        problems.update(dict.fromkeys(result.problems))
        for group, got in result.groups.items():
            want = pinned.get(group)
            if want is None:
                problems[f"{group}: no pinned answer"] = None
            elif varies[group]:
                if got["outcome"] != "ok":
                    problems[f"{group}: failed ({got['outcome']})"] = None
                elif got["invariant"] != want["invariant"]:
                    problems[f"{group}: {got['invariant']}, pinned {want['invariant']}"] = None
                elif (
                    args.seed == DEFAULT_SEED
                    and result.pass_index == 0
                    and got["digest"] != want["digest"]
                ):
                    problems[f"{group}: answer changed"] = None
            elif want["outcome"] == "ok":
                if got["outcome"] != "ok" or got["digest"] != want["digest"]:
                    problems[f"{group}: answer changed ({got['outcome']})"] = None
            else:
                # A known failure may keep failing, in any way, or succeed:
                # its certificate then replays, or check() reported a problem.
                known[group] = {"instance": group, "baseline": want["outcome"], "now": got["outcome"]}
    return list(problems), list(known.values())


def latency_metrics(latencies: list) -> dict:
    """Median and tail, by nearest rank.  The tail is the highest of p99.9
    and p99 with at least 10 instances beyond it, else p90; with fewer than
    100 instances (certify), fewer than 10 lie beyond p90."""
    ordered = sorted(latencies)
    n = len(ordered)
    percentile = next((p for p in (99.9, 99.0) if n - math.ceil(p / 100 * n) >= 10), 90.0)
    rank = math.ceil(percentile / 100 * n)
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) * 1000,
        "tail": {"percentile": percentile, "value_ms": ordered[rank - 1] * 1000, "beyond": n - rank},
    }


def import_package():
    """Import conceptlab from ``src`` of this tree, with the working
    directory at its root; None when the tree has no package source."""
    source = ROOT / "src" / "conceptlab"
    if not (source / "__init__.py").is_file():
        print(f"no package source at {source}", file=sys.stderr)
        return None
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import conceptlab

    if Path(conceptlab.__file__).resolve().parent != source:
        print(f"conceptlab imported from {conceptlab.__file__}, not {source}", file=sys.stderr)
        return None
    signal.signal(signal.SIGALRM, _on_deadline)
    return conceptlab


def fresh_import_seconds() -> float:
    """Seconds to import the package and the workloads in a fresh
    interpreter.  This process imported them once, partly warm from the
    modules the benchmark itself loads; set-up time takes the median of
    several fresh imports instead."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
        "import conceptlab, workloads; print(time.perf_counter() - start)"
    )
    argv = [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def run_workload(args) -> int:
    loadavg_start = os.getloadavg()
    start = time.perf_counter()
    conceptlab = import_package()
    if conceptlab is None:
        return 2
    import workloads

    import_s = time.perf_counter() - start
    import_times = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    build = workloads.WORKLOADS[args.workload]
    workdir = WORKDIR / args.workload
    setup_times = []
    for _ in range(SETUP_REPEATS):
        instances = None
        start = time.perf_counter()
        instances = build(args.seed, 0, workdir)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    settle()
    pins = json.loads(BASELINE.read_text())["workloads"] if BASELINE.exists() else {}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "kernel_backend": conceptlab.KERNEL_BACKEND,
            "commit": git_commit(),
            "recursion_limit": sys.getrecursionlimit(),
            "loadavg_start": loadavg_start,
        },
        "instances_per_pass": len(instances),
        "deadline_s": DEADLINE_S,
        "setup": {"import_s": import_times, "import_here_s": import_s, "build_s": setup_times},
    }

    if args.trace:
        # every pass runs the same inputs, so that the traced passes must
        # repeat each other's counts exactly
        untraced = run_pass(instances, 0)
        tracer = tracing.Tracer()
        tracer.install()
        tracer.on = True
        counts, self_times, traced = [], [], []
        for _ in range(TRACED_PASSES):
            tracer.reset()
            traced.append(run_pass(instances, 0, tracer))
            counts.append(tracer.exact_counts())
            self_times.append(dict(tracer.self_s))
        tracer.on = False
        passes = [untraced] + traced
    else:
        passes = []
        timed = 0.0
        reached_deadline: set = set()
        while len(passes) < MIN_PASSES or timed < args.seconds:
            if passes:
                instances = build(args.seed, len(passes), workdir)
                settle()
            # an instance that reached the deadline once would only burn it
            # again: it is attempted, and fails, once per run
            todo = [i for i in instances if i.id not in reached_deadline]
            passes.append(run_pass(todo, len(passes)))
            timed += sum(passes[-1].latencies.values())
            reached_deadline.update(k for k, v in passes[-1].failures.items() if v == "deadline")

    problems, known = gate(args, instances, passes, pins)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    report["passes"] = len(passes)
    report["attempted"] = attempted
    report["failed"] = failed
    report["failed_frac"] = failed / attempted
    report["known_failures"] = known

    if args.trace:
        if any(p.groups != untraced.groups for p in traced):
            problems.append("traced answers differ from untraced ones")
        missing = [n for n in REQUIRED[args.workload] if counts[0].get(f"{n}.calls", 0) == 0]
        problems.extend(f"traced run reached no call of {n}" for n in missing)
        if any(c != counts[0] for c in counts[1:]):
            keys = set().union(*counts)
            diff = sorted(k for k in keys if len({c.get(k) for c in counts}) > 1)
            problems.append(f"counts differ between traced passes: {diff}")
        # overhead over the instances that finished in every pass
        done = [
            inst.id for inst in instances
            if all(p.failures.get(inst.id) != "deadline" for p in passes)
        ]
        untraced_s = sum(untraced.latencies[i] for i in done)
        traced_s = statistics.mean(sum(p.latencies[i] for i in done) for p in traced)
        metrics = layer_metrics(counts[0], self_times)
        metrics["trace.overhead_frac"] = {"value": traced_s / untraced_s - 1, "unit": "frac"}
        report["tracing"] = {
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "wait": "none: no layer has a queue or a lock",
            "targets": TARGETS,
            "exact_counts": counts[0],
        }
    else:
        # An instance's latency is its median over the passes, which are
        # spread over the run: a median or tail of single timings follows the
        # machine's speed at a few moments, and that speed drifts by up to a
        # quarter within seconds; a mean still follows the slowest of them.
        times: dict = {}
        for p in passes:
            for iid, seconds in p.latencies.items():
                times.setdefault(iid, []).append(seconds)
        latencies = [statistics.median(t) for t in times.values()]
        lat = latency_metrics(latencies)
        report["latency"] = lat
        report["pass_s"] = [sum(p.latencies.values()) for p in passes]
        # the rate of a typical pass: every instance once, at its median
        # latency (an instance that reached the deadline counts its one try)
        report["typical_pass_s"] = sum(latencies)
        metrics = {
            "answers_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "answer_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
            "answer_tail_ms": {"value": lat["tail"]["value_ms"], "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "answered_frac": {"value": 1 - failed / attempted, "unit": "frac"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    report["env"]["loadavg_end"] = os.getloadavg()
    report["gate"] = {"correct": not problems, "problems": problems[:50]}
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(counts: dict, self_times: list) -> dict:
    metrics = {}
    for name in tracing.SPANS + (tracing.ROOT,):
        metrics[f"{name}.calls"] = {"value": counts[f"{name}.calls"], "unit": "count"}
        self_s = statistics.mean(s.get(name, 0.0) for s in self_times)
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name in tracing.COUNTS:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    calls = counts["dimensions.ds_shatters.calls"]
    metrics["dimensions.ds_shatters.positive_ratio"] = {
        "value": counts.get("dimensions.ds_shatters.positive", 0) / calls if calls else 0.0,
        "unit": "frac",
    }
    for name in tracing.KERNELS:
        calls = counts[f"{name}.calls"]
        metrics[f"{name}.distinct_ratio"] = {
            "value": counts[f"{name}.distinct_inputs"] / calls if calls else 0.0,
            "unit": "frac",
        }
    return metrics


def run_all(args) -> int:
    """Every workload, each in a fresh process; prints their reports."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        detail, result = json.loads("\n".join(report)), json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
            print(f"{name:10s} {metric:48s} {value['value']:.6g} {value['unit']}")
        print(f"{name:10s} {'failed_frac':48s} {detail['failed_frac']:.6g} frac")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
