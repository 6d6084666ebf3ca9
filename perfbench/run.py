#!/usr/bin/env python3
"""The dclue-rs benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `dclue-perf` package in
this directory twice (plain, and with the `trace` feature) under
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the workload
in a child process:

* `--trace 0`: the plain build cycles through the workload's
  simulation seeds (derived from `--seed`) for about `--seconds` of
  host time, every seed at least once and the first seed twice. The
  end-to-end metrics: median `World::new` and `World::run` seconds per
  simulation, events per committed transaction over the seeds, and the
  process's peak resident set.
* `--trace 1`: one plain process times `Database::build` and one
  simulation of `--seed`; then the traced build runs that simulation
  twice under a counting trace sink. The per-layer metrics come from
  both; `--seconds` does not apply.

Every simulation's report fingerprint is checked: against the recorded
reference for its seed when there is one (exact, or the statistical
ladder for the segment-train workload), against the seed's other
simulations always, and in the traced run against the plain one. A
simulation that panics, is refused by `validate()` or fails a check
counts in `failed`. The failed share is not an end-to-end metric
because metrics must never be 0; it is printed, and carried by
`attempted` and `failed`.

Standard output ends with one JSON line:
`{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
The lines before it are the manifest and each metric with its unit.
Exit code 0 when every simulation passed, 1 when one failed, 2 when
the benchmark could not run (bad arguments, no sources, build error).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Children still running this long after the simulations started are
# killed and counted failed, so an invocation ends within 180 s.
DEADLINE_S = 165


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(traced):
    """Build the plain or traced binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        die(f"no dclue-rs sources under {ROOT}; run from a full checkout")
    base = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    target = os.path.join(base, "traced" if traced else "plain")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target]
    if traced:
        cmd += ["--features", "trace"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    except OSError as e:
        die(f"cannot run cargo: {e}")
    if r.returncode != 0:
        die(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "dclue-perf")


def child(binary, args, deadline):
    """Run one dclue-perf process; return its parsed JSON line.

    A crash, a run past `deadline` (a `time.monotonic()` value) or a
    missing result line counts as one failed simulation, so it shows in
    `failed` like any other failure.
    """
    cmd = [binary] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        lines = r.stdout.strip().splitlines()
        if r.returncode in (0, 1) and lines:
            return json.loads(lines[-1])
        why = f"exit code {r.returncode}"
    except subprocess.TimeoutExpired:
        why = f"killed at the {DEADLINE_S} s deadline"
    except ValueError as e:
        why = f"unreadable result line: {e}"
    print(f"perfbench: {' '.join(cmd)}: {why}", file=sys.stderr)
    return {"attempted": 1, "failed": 1, "failures": [why]}


def git_revision():
    """HEAD's commit id when the sources are a git checkout, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def end_to_end(plain):
    return {
        "setup_s": statistics.median(plain["setup_s"]),
        "run_s": statistics.median(plain["run_s"]),
        "events_per_txn": plain["events"] / plain["committed"],
        "peak_rss_mb": plain["peak_rss_mb"],
    }


def per_layer(plain, traced):
    """Per-layer metrics: the traced run's, plus the host timings of the
    plain process's one simulation (tracing off)."""
    m = dict(traced["layers"])
    (build_s,), (setup_s,), (run_s,) = plain["db_build_s"], plain["setup_s"], plain["run_s"]
    m["db.build_s"] = build_s
    # World::new minus the database build: a difference of two host
    # timings, so near zero where assembly is cheap.
    m["core.assemble_s"] = setup_s - build_s
    m["sim.events_per_s"] = plain["events"] / run_s
    m["trace.overhead_ratio"] = statistics.median(traced["run_s"]) / run_s
    return m


def main():
    # Workload and metric names, and metric units, have one source:
    # BENCHMARK.json at the repository root.
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not 0 <= a.seed < 2**64:
        die("--seed must be in [0, 2^64)")

    # Both builds on every invocation: the first one in a checkout pays
    # for both, and an up-to-date build is a sub-second check.
    plain_bin = build(traced=False)
    traced_bin = build(traced=True)
    common = ["--workload", a.workload, "--seed", str(a.seed)]

    failures = []
    deadline = time.monotonic() + DEADLINE_S
    if a.trace == 0:
        plain = child(plain_bin, common + ["--seconds", str(a.seconds)], deadline)
        runs = [plain]
    else:
        plain = child(plain_bin, common + ["--min-iters", "1", "--time-db-build"], deadline)
        traced = child(traced_bin, common, deadline)
        runs = [plain, traced]
        fp_plain, fp_traced = plain.get("fingerprint"), traced.get("fingerprint")
        if fp_plain is not None and fp_traced is not None and fp_plain != fp_traced:
            failures.append("the traced run's fingerprint differs from the untraced run's")
            traced["failed"] = traced["attempted"]
    attempted = sum(r["attempted"] for r in runs)
    failed = min(attempted, sum(r["failed"] for r in runs))
    for r in runs:
        failures += r.get("failures", [])

    metrics = {}
    if failed == 0:
        metrics = end_to_end(plain) if a.trace == 0 else per_layer(plain, traced)
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if a.trace == 0 else "per_layer"]}
    if metrics.keys() - units.keys() or (failed == 0 and units.keys() - metrics.keys()):
        die(f"measured metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    manifest = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "config": plain.get("config"),
        "simulation_seeds": plain.get("seeds"),
        "reference": plain.get("reference"),
        "host_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "builds": {"plain": [], "traced": ["trace"]} if a.trace else {"plain": []},
        "profile": "release",
        "git_revision": git_revision(),
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for f in failures:
        print(f"failure {f}")
    for name, unit in units.items():
        if name in metrics:
            print(f"metric {name} = {metrics[name]!r} {unit}")
    print(f"metric failed_share = {failed / attempted!r} ratio ({failed} of {attempted} simulations)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
