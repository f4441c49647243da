"""Run one benchmark workload in this (fresh) process and record it.

Started by run.py, once per workload, so that ``ru_maxrss`` is this
workload's own peak.  With --setup-only it measures set-up (importing
hedgetest and parsing the workload's configs), prints it in seconds and in
cal and exits.  Otherwise it runs passes for --seconds, checks the first
pass's outputs, compares every later pass byte for byte with the first,
runs the worker-count determinism check and writes its measurements as
JSON.  A pass is started only if, at the mean pass time so far, it ends
within --seconds.

Untraced passes and set-up are also costed in calibration units ("cal",
see speedclock.py), which cancels the host's changing CPU speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speedclock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run_op(fn):
    """(exit code, outputs) of one operation; code None if it raised."""
    try:
        return fn()
    except SystemExit as exc:
        return exc.code, {}
    except Exception:
        traceback.print_exc()
        return None, {}


def _check(workload, name: str, out: dict):
    """The workload's verdict on one operation's outputs; malformed output
    that makes the check raise is a failure, not a crash."""
    try:
        return workload.check(name, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"check raised {exc!r}"], None


def _read(outputs: dict) -> dict:
    """Output bytes; a Path is a file the program wrote, bytes come from the
    benchmark's own calls into the library."""
    return {k: v if isinstance(v, bytes) else v.read_bytes() for k, v in outputs.items()}


def _median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


class _Passes:
    """Runs passes of a workload and keeps their timings and verdicts.

    The first pass's outputs are checked; a later pass passes only if its
    outputs are byte-identical to the first, and inherits the first's verdict.
    """

    def __init__(self, workload):
        self.workload = workload
        self.passes, self.problems, self.shortfalls = [], [], []
        self.attempted = self.failed = 0
        self._first = {}              # op -> (sha256 of outputs, problems)

    def record(self, op: str, errs: list[str]) -> None:
        self.attempted += 1
        if errs:
            self.failed += 1
            self.problems += [f"{op}: {e}" for e in errs]

    def run(self, pass_dir: Path, tracer, clock) -> None:
        """One pass; a traced pass is timed in seconds only, an untraced one
        also in cal by the sampling clock."""
        pass_dir.mkdir()
        ops = self.workload.ops(pass_dir)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        else:
            clock.start()
        results, pass_s, cpu_s, cost, cpu_cost = [], 0.0, 0.0, 0.0, 0.0
        try:
            for name, fn in ops:
                cpu0, since = _cpu_s(), clock.mark()
                results.append((name, _run_op(fn)))
                op_cal, op_s, probed = clock.cost(since)
                op_cpu = _cpu_s() - cpu0 - probed
                pass_s += op_s
                cpu_s += op_cpu
                cost += op_cal
                cpu_cost += op_cpu * op_cal / op_s
        finally:
            if tracer is not None:
                tracer.uninstall()
            else:
                clock.stop()
        record = {"traced": tracer is not None, "pass_s": pass_s, "cpu_s": cpu_s,
                  "cost_cal": cost, "cpu_cal": cpu_cost, "bytes_out": 0}
        for name, (code, outputs) in results:
            errs = [f"exited {code}"] if code != 0 else []
            if not errs:
                try:
                    out = _read(outputs)
                except OSError as exc:
                    errs = [f"output unreadable: {exc}"]
            if not errs:
                record["bytes_out"] += sum(len(out[k]) for k, v in outputs.items()
                                           if isinstance(v, Path))
                digest = hashlib.sha256(b"\0".join(out[k] for k in sorted(out))).hexdigest()
                if name not in self._first:
                    checked, shortfall = _check(self.workload, name, out)
                    self._first[name] = (digest, checked)
                    if shortfall is not None:
                        self.shortfalls.append(shortfall)
                first_digest, errs = self._first[name]
                if digest != first_digest:
                    errs = ["output differs from the first pass"]
            self.record(f"pass {len(self.passes)} {name}", errs)
        if tracer is not None:
            record["layer"] = tracer.layer_metrics(pass_s)
            record["spans"] = tracer.span_table()
        self.passes.append(record)
        for path in pass_dir.iterdir():
            path.unlink()
        pass_dir.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    clock = speedclock.SpeedClock("interpreter")
    clock.start()
    try:
        since = clock.mark()
        sys.path.insert(0, str(SRC))
        import hedgetest
        import workloads
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.workdir)
        workload.setup()
        setup_cal, setup_s, _ = clock.cost(since)
    finally:
        clock.stop()
    if Path(hedgetest.__file__).resolve().parent != SRC / "hedgetest":
        print(f"error: hedgetest imported from {hedgetest.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    setup = {"setup_s": setup_s, "setup_cal": setup_cal}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import numpy
    import scipy
    import tracing

    workload.prepare()
    clock = speedclock.SpeedClock(workload.calibration)
    tracer = tracing.Tracer() if args.trace else None
    run = _Passes(workload)
    begin = time.perf_counter()
    while (len(run.passes) < 2 or (time.perf_counter() - begin)
           * (len(run.passes) + 1) / len(run.passes) <= args.seconds):
        traced = tracer is not None and len(run.passes) % 2 == 1
        run.run(args.workdir / f"pass{len(run.passes)}", tracer if traced else None, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    c10 = workloads.c10_problems(ROOT, args.workdir, args.seed)
    if c10 is not None:
        run.record("C10", c10)

    passes = run.passes
    plain = [p for p in passes if not p["traced"]]
    result = {
        "workload": workload.name, "unit": workload.unit, "items": workload.items,
        "inputs": workload.inputs, "setup": setup,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "passes": [{k: p[k] for k in ("traced", "pass_s", "cpu_s", "cost_cal", "cpu_cal")}
                   for p in passes],
        "throughput": [workload.items / p["pass_s"] for p in plain],
        "throughput_cal": [workload.items / p["cost_cal"] for p in plain],
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "cpu_cal": statistics.median(p["cpu_cal"] for p in plain),
        "peak_rss_mb": peak_rss_mb,
        "c10": "skipped: fewer than 2 processors" if c10 is None else "run",
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
    }
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        layer = _median_metrics([p["layer"] for p in traced])
        layer["pricing.floor_shortfall"] = max(run.shortfalls, default=0.0)
        layer["harness.bytes_out"] = statistics.median(p["bytes_out"] for p in traced)
        layer["trace_overhead"] = (statistics.median(p["pass_s"] for p in traced)
                                   / statistics.median(p["pass_s"] for p in plain) - 1.0)
        absent = tracer.absent_metrics()
        result["per_layer"] = {k: {"value": 0.0 if k in absent else layer[k], "unit": unit}
                               for k, (unit, *_) in tracing.LAYER_METRICS.items()}
        result["absent"] = absent
        result["spans"] = traced[-1]["spans"]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
