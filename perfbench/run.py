"""ztransport benchmark: closed-loop workloads over the engine's layers.

    python3 perfbench/run.py                                   # every workload, untraced
    python3 perfbench/run.py --workload golden --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload large_decide --trace 1  # per-layer spans

Each workload runs in processes of its own (``workload.py``), so set-up
time and peak memory belong to that workload.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("golden", "random_sweep", "large_decide")
E2E = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb", "formula_chars")
SETUP_SAMPLES = 7  # process starts per run; setup_s is their median
TIME_LIMIT_S = 170.0  # one invocation of this script, all children included


def machine_info() -> dict:
    """Where the numbers came from: source identity, cores, CPU, Python."""
    info = {"git_sha": "unknown", "src_sha256": "", "nproc": len(os.sched_getaffinity(0))}
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        info["git_sha"] = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    info["git_sha"] = fh.read().strip()
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    info["src_sha256"] = digest.hexdigest()[:16]
    info["cpu"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu"] = models[0] if models else "unknown"
    except OSError:
        pass
    info["python"] = platform.python_version()
    return info


def child(workload: str, mode: str, seed: int, seconds: float, deadline: float) -> tuple[float, dict]:
    """Run workload.py in a fresh process; returns (start time, its report)."""
    env = dict(os.environ)
    # one client, one thread of work: numpy's BLAS pools stay at one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}) exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    if trace:
        return child(workload, "trace", seed, seconds, deadline)[1]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        started, probe = child(workload, "setup", seed, seconds, deadline)
        setups.append((probe["ready_at"] - started) * speed.factor([probe["setup_probe_s"]]))
    started, report = child(workload, "run", seed, seconds, deadline)
    setups.append((report["ready_at"] - started) * speed.factor([report["setup_probe_s"]]))
    report["metrics"]["setup_s"] = (statistics.median(setups), "s", len(setups))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ztransport benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    if not os.path.isdir(os.path.join(SRC, "ztransport")):
        print(f"error: no ztransport sources under {SRC}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all":
        # three workloads share one time limit
        args.seconds = min(args.seconds, (TIME_LIMIT_S - 60.0) / 3)
    info = machine_info()
    reports = {}
    for w in workloads:
        try:
            reports[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    info["numpy"] = reports[workloads[0]]["numpy"]
    print(json.dumps({"machine": info, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w, report in reports.items():
        print(f"\n{w}: {report['attempted']} ops, {report['failed']} failed")
        for problem in report["problems"]:
            print(f"  problem: {problem}")
        for name in report.get("absent", []):
            print(f"  absent: {name} (no such attribute in the program)")
        for name, (value, unit, samples) in sorted(report["metrics"].items()):
            print(f"  {name:48s} {value:>16.6g} {unit:6s} n={samples}")
        result["correct"] = result["correct"] and report["correct"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        names = E2E if not args.trace else sorted(report["metrics"])
        prefix = f"{w}." if len(workloads) > 1 else ""
        for name in names:
            value, unit, _ = report["metrics"][name]
            result["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
