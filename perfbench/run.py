#!/usr/bin/env python3
"""End-to-end benchmark of cluster_serve, run from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--workload <name> ...] [--seed <n>] [--seconds <s>]

Builds cluster_serve and the load generator (perfbench/src) from source into
$CARGO_TARGET_DIR (default .bench_build), runs one measurement and prints
its lines, a noise stamp, and last the JSON result. Workloads: fig11_cosim,
cohort_campaign.

--selftest runs, per workload, one untraced and two traced runs of one seed.
It fails unless the count metrics of the two traced runs are identical, and
prints the tracing overhead: the traced run's p50 over its prefix against
the untraced run's p50 over the same requests.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ["fig11_cosim", "cohort_campaign"]
# A run's own budget; the load generator stops sending well before this.
RUN_TIMEOUT_S = 170


def build():
    """Builds both binaries; returns their paths or exits non-zero."""
    target = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in [
        (os.path.join(REPO, "Cargo.toml"), ["-p", "implant-cluster", "--bin", "cluster_serve"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "cluster_serve"), os.path.join(release, "perfbench")


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)  # steal, total


def load1():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def source_rev():
    try:
        rev = subprocess.run(["git", "-C", REPO, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        return "git:" + rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates"]:
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names
            if n.endswith((".rs", ".toml")))
        for name in files:
            digest.update(os.path.relpath(name, REPO).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:12]


def stamp_lines(before, after):
    steal = after[0][0] - before[0][0]
    total = max(after[0][1] - before[0][1], 1)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return [
        f"perfbench: stamp nproc={len(os.sched_getaffinity(0))} rustc={rustc!r} rev={source_rev()}",
        f"perfbench: stamp steal_pct={100.0 * steal / total:.3f} "
        f"load1_start={before[1]:.2f} load1_end={after[1]:.2f} load1_delta={after[1] - before[1]:+.2f}",
    ]


def run_once(bins, workload, seed, seconds, trace):
    """One measurement: returns (exit code, output lines, JSON result line or None)."""
    server, loadgen = bins
    cmd = [loadgen, "--server", server, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = (cpu_times(), load1())
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The load generator's process group holds every cluster_serve it spawned.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1, [], None
    after = (cpu_times(), load1())
    lines = out.splitlines()
    result = lines.pop() if lines and lines[-1].startswith("{") else None
    return child.returncode, lines + stamp_lines(before, after), result


def selftest(bins, workloads, seed, seconds):
    ok = True
    for workload in workloads:
        code, lines, _ = run_once(bins, workload, seed, seconds, 0)
        prefix_p50 = next((float(l.split("=")[1].split()[0]) for l in lines
                           if "over the traced prefix" in l), None)
        traced = [run_once(bins, workload, seed, seconds, 1) for _ in range(2)]
        if code != 0 or any(c != 0 or r is None for c, _, r in traced):
            print(f"selftest {workload}: a run failed")
            ok = False
            continue
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count" and k.split(".")[0] in ("cosim", "analog")}
                  for r in (json.loads(line) for _, _, line in traced)]
        same = counts[0] == counts[1]
        ok &= same
        traced_p50 = json.loads(traced[0][2])["metrics"]["trace.latency_p50_ms"]["value"]
        print(f"selftest {workload}: count metrics {'identical' if same else 'DIFFER'}: {counts[0]}"
              + ("" if same else f" vs {counts[1]}"))
        if prefix_p50:
            print(f"selftest {workload}: tracing overhead {100.0 * (traced_p50 / prefix_p50 - 1):+.1f}% "
                  f"(traced p50 {traced_p50:.3f} ms, untraced p50 {prefix_p50:.3f} ms, same requests)")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    bins = build()
    if args.selftest:
        return selftest(bins, args.workload or WORKLOADS, args.seed, args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    code, lines, result = run_once(bins, args.workload[0], args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    if result is not None:
        print(result)
    return code if result is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
