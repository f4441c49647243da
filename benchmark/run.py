#!/usr/bin/env python3
"""hedgetest benchmark: run workloads end to end and print their metrics.

    python3 benchmark/run.py --workload tables|screen|contracts|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process (worker.py), so its peak memory is its own.  With --trace 0 the
result carries the end-to-end metrics; with --trace 1 the per-layer metrics
of a traced run.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines above it are a
readable report and the run's provenance.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("tables", "screen", "contracts")
# Set-up is measured this many times in fresh processes, plus once by the
# worker itself; setup_s is the median.
SETUP_PROBES = 4
# Seconds of one interpreter cal (speedclock.py) during set-up on the machine
# the benchmark was defined on, a 2-CPU Intel Xeon virtual machine: 1.12 s of
# set-up over 11,700 cal.  setup_s is set-up's cost in cal at this rate, so it
# reads as seconds there and does not move with the host's CPU speed.
SETUP_CAL_S = 96e-6
# Every run must end well inside three minutes.
DEADLINE_S = 170.0

# Throughput and CPU time are in calibration units ("cal": the time of one run
# of a fixed loop, sampled while each operation runs; see speedclock.py),
# which cancels the host's CPU speed; the report also prints them per second.
END_TO_END = (("setup_s", "s"), ("throughput_cal", "items/cal"), ("cpu_cal", "cal"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed worker)."""


def _check_checkout() -> None:
    for needed in (ROOT / "src" / "hedgetest" / "__init__.py", ROOT / "configs"):
        if not needed.exists():
            raise BenchError(f"{needed.relative_to(ROOT)} not found: run from a "
                             "hedgetest checkout")


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """sha256 over the program's sources and configs, for checkouts without git."""
    h = hashlib.sha256()
    files = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("configs/*.cfg"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(seed: int, trace: int, results: list[dict]) -> dict:
    return {"commit": _commit(), "source_sha256": _source_digest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), **results[0]["versions"],
            "seed": seed, "trace": bool(trace),
            "inputs": {r["workload"]: r["inputs"] for r in results}}


def _child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a worker to completion; a timeout kills it and waits for it."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + argv,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv[:2])} exited {proc.returncode}")
    return proc


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 workdir: Path, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            proc = _child(common + ["--setup-only"], deadline - time.monotonic())
            setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    result_file = workdir / "result.json"
    _child(common + ["--seconds", str(seconds), "--trace", str(trace),
                     "--result", str(result_file)], deadline - time.monotonic())
    result = json.loads(result_file.read_text())
    result["setup_samples"] = setups + [result["setup"]]
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(result: dict) -> dict:
    setup_cal = statistics.median(x["setup_cal"] for x in result["setup_samples"])
    return {"setup_s": setup_cal * SETUP_CAL_S,
            "throughput_cal": statistics.median(result["throughput_cal"]),
            "cpu_cal": result["cpu_cal"], "peak_rss_mb": result["peak_rss_mb"]}


def report(result: dict, trace: int) -> list[str]:
    """Readable lines for one workload's result."""
    name, att, fail = result["workload"], result["attempted"], result["failed"]
    lines = [f"== {name}  inputs {json.dumps(result['inputs'])}  "
             f"passes {len(result['passes'])}  C10 {result['c10']}"]
    if not trace:
        m = end_to_end(result)
        unit, per_cal = result["unit"], result["unit"].replace("/s", "/cal")
        wall = statistics.median(x["setup_s"] for x in result["setup_samples"])
        lines.append(f"  setup_s         {_fmt(m['setup_s'])} s at {SETUP_CAL_S:g} s/cal  "
                     f"(median of {len(result['setup_samples'])}; wall {_fmt(wall)} s)")
        for key, shown in (("throughput_cal", per_cal), ("throughput", unit)):
            thr = result[key]
            q1, _, q3 = statistics.quantiles(thr, n=4)   # untraced runs make >= 2 passes
            lines.append(f"  {key:15s} {_fmt(statistics.median(thr))} {shown}  "
                         f"(median; q1 {_fmt(q1)}, q3 {_fmt(q3)}; n={len(thr)} passes "
                         f"of {result['items']} items)")
        lines += [
            f"  cpu_cal         {_fmt(m['cpu_cal'])} cal per pass  (median)",
            f"  cpu_s           {_fmt(result['cpu_s'])} s per pass  (median)",
            f"  peak_rss_mb     {_fmt(m['peak_rss_mb'])} MB"]
    else:
        for key, m in result["per_layer"].items():
            mark = "  (absent)" if key in result["absent"] else ""
            lines.append(f"  {key:28s} {_fmt(m['value'])} {m['unit']}{mark}")
        lines.append("  spans of the last traced pass: name count total_s self_s")
        lines += [f"    {s:26s} {c:9d} {_fmt(t):>10s} {_fmt(x):>10s}"
                  for s, c, t, x in result["spans"]]
    lines.append(f"  error_rate      {_fmt(fail / att)}  ({fail} of {att} operations failed)")
    lines += [f"  FAILED {p}" for p in result["problems"]]
    return lines


def metrics(result: dict, trace: int, prefix: str = "") -> dict:
    if trace:
        return {prefix + k: m for k, m in result["per_layer"].items()}
    values = end_to_end(result)
    return {prefix + k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run hedgetest benchmark workloads and print their metrics.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)

    try:
        _check_checkout()
        scratch = ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        results = []
        for name in names:
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
            try:
                results.append(run_workload(name, args.seed, args.seconds, args.trace,
                                            workdir, deadline))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for result in results:
        print("\n".join(report(result, args.trace)))
    print("provenance " + json.dumps(_provenance(args.seed, args.trace, results)))
    prefixed = len(results) > 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    out = {}
    for r in results:
        out.update(metrics(r, args.trace, r["workload"] + "." if prefixed else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
