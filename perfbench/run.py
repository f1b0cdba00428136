"""The symcon benchmark: three workloads, each round in a fresh interpreter.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog|expand-20|routes-20 \
        --seed N --seconds S --trace 0|1 [--smoke]

A run repeats whole rounds until S seconds have passed (at least one
round).  A round starts `perfbench/worker.py` in a new process, because
every symcon CLI call starts with cold caches.  With --trace 0 a round is
one untraced process, and the run reports the end-to-end metrics:

  setup_s      spawn of the interpreter to `import symcon` returning,
               median over every process the run starts
  wall_s       after the import to the workload's last result, median
  peak_rss_mb  peak resident set of the workload process, median

Both times are in reference seconds (hostspeed.py): each is scaled by the
speed of the host, measured with a fixed kernel right beside it, because
this host's CPU speed drifts by more than a bound worth keeping.

With --trace 1 a round is an untraced process, a traced process that
records spans at every layer boundary, and a process that counts
Fraction operations; the run reports the per-layer metrics, the raw
seconds behind the end-to-end times and the tracing overhead (traced
wall_s minus untraced wall_s, both raw).

Inputs are fixed enumerations: --seed is recorded but changes nothing.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("catalog", "expand-20", "routes-20")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# Import-only processes per round: more set-up samples for little time.
SETUP_PROBES = 16
# A run must end within 180 s; no process is started after this point.
DEADLINE_S = 170.0
# Workers write and load the bytecode cache under the checkout, as an
# installed package ships it compiled, whatever the caller's environment says.
WORKER_ENV = {
    k: v for k, v in os.environ.items()
    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
}


class BenchError(Exception):
    pass


def spawn(workload: str, mode: str, smoke: bool, deadline: float) -> dict:
    """Run one worker process to its end and return its report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    argv = [sys.executable, WORKER, workload, "--mode", mode]
    if smoke:
        argv.append("--smoke")
    t0 = time.monotonic()
    argv += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker ran past the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} {mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    report = json.loads(lines[-1])
    src = os.path.join(ROOT, "src", "symcon")
    if os.path.realpath(report["symcon"]) != os.path.realpath(src):
        raise BenchError(f"worker imported symcon from {report['symcon']}, not {src}")
    return report


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def git_sha() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rounds(args, modes) -> tuple[list[list[dict]], list[dict]]:
    """Whole rounds until --seconds have passed; returns reports and set-up reports."""
    deadline = time.monotonic() + DEADLINE_S
    spawn(args.workload, "setup", args.smoke, deadline)  # writes the bytecode cache; not measured
    start = time.monotonic()
    rounds, setups = [], []
    while not rounds or time.monotonic() - start < args.seconds:
        reports = [spawn(args.workload, mode, args.smoke, deadline) for mode in modes]
        setups += [spawn(args.workload, "setup", args.smoke, deadline) for _ in range(SETUP_PROBES)]
        setups += reports
        rounds.append(reports)
    return rounds, setups


def setup_ref_s(setups: list[dict]) -> float:
    """The median set-up time, scaled by the host's speed over the whole run.

    Each worker times the kernel right after its import, on the CPU that
    imported. One such time is about as noisy as the set-up it would
    scale, so the run's set-ups share one factor from all of them.
    """
    kernel = [r["setup_kernel_s"] for r in setups]
    return statistics.median(r["setup_s"] for r in setups) * hostspeed.scale(kernel)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "symcon", "__init__.py")):
        print(f"error: no symcon sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    modes = ("plain", "spans", "counts") if args.trace else ("plain",)
    try:
        rounds, setups = run_rounds(args, modes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for reports in rounds for r in reports)
    failed = sum(r["failed"] for reports in rounds for r in reports)
    wrong = sum(r["wrong"] for reports in rounds for r in reports)
    problems = [p for reports in rounds for r in reports for p in r["problems"]]

    plain = [reports[0] for reports in rounds]
    if args.trace:
        spans = [reports[1] for reports in rounds]
        counts = [reports[2] for reports in rounds]
        values = {}
        for name, _ in tracing.per_layer_metrics():
            source = counts if name.startswith("fraction.") else spans
            if name in source[0]["layers"]:
                values[name] = statistics.median(r["layers"][name] for r in source)
        traced_wall = statistics.median(r["wall_s"] for r in spans)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
        values["host.wall_s"] = statistics.median(r["wall_s"] for r in plain)
        values["host.setup_s"] = statistics.median(r["setup_s"] for r in setups)
        values["host.kernel_ms"] = 1000 * statistics.median(r["kernel_s"] for r in plain)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in tracing.per_layer_metrics()
        }
    else:
        values = {
            "setup_s": setup_ref_s(setups),
            "wall_s": statistics.median(r["wall_ref_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload}: {len(rounds)} rounds, {len(setups)} set-ups")
    print("round wall_s, raw: " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    print("round wall_s, reference: " + " ".join(f"{r['wall_ref_s']:.3f}" for r in plain))
    print("round kernel_ms: " + " ".join(f"{1000 * r['kernel_s']:.2f}" for r in plain))
    print(f"set-up, raw: median {statistics.median(r['setup_s'] for r in setups):.5f} s; "
          f"kernel after import: mean {1000 * statistics.fmean(r['setup_kernel_s'] for r in setups):.3f} ms")
    print("env " + json.dumps(environment(args.seed)))
    if args.trace:
        print(f"spans: {spans[-1]['spans']} in {spans[-1]['spans_file']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
