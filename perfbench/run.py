"""permdom benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sweep|solve|count|verify \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from its `src/`.  One client sends the workload's request list
through `permdom.cli.main(argv)` in this process, as a closed loop (the next
request starts when the previous one returns), with `--jobs 1`, pass after
pass until the next pass would end after `--seconds`.  Every request is
checked.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (set-up time, pass
time, median request latency, peak memory); with `--trace 1` passes alternate
untraced and traced, and the metrics are the per-layer ones of
`tracer.per_layer_units()` plus the tracing overhead.  Times in the JSON are
in reference seconds (see speed.py); the lines before it give the raw times,
the run's context and the metrics the JSON does not carry.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
import speed
import tracer as tracing
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_RUNS = 9            # measured cold starts, after one unmeasured
REQUEST_LIMIT_S = 60.0    # a request running longer fails as a timeout
RUN_BUDGET_S = 160.0      # no request starts after this (the run must end by 180 s)
JOBS_NOTE = ("--jobs scaling is not measured: every request runs with --jobs 1, "
             "because on a 2-core machine more workers would measure the "
             "scheduler, not permdom")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms",
                    "peak_rss_mb": "MB"}
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import permdom.cli; "
              "permdom.cli.build_parser()")


def measure_setup(root: Path, speedometer: speed.Speedometer) -> list[tuple[float, float]]:
    """(raw, normalised) wall time of fresh interpreters that import permdom
    and build the argument parser; the first one, which may compile
    bytecode, is not measured.  Speed samples are taken between them."""
    spans = []
    for i in range(SETUP_RUNS + 1):
        speedometer.sample()
        speedometer.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        end = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
        if i:
            spans.append((start, end))
    speedometer.sample()
    speedometer.sample()
    return [(end - start, speedometer.normalise(end - start, start, end))
            for start, end in spans]


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": _git_sha(ROOT),
        "clients": 1,
        "loop": "closed",
        "jobs": 1,
        "jobs_note": JOBS_NOTE,
        "time_unit": f"reference seconds: the host's speed is sampled with a "
                     f"fixed kernel and scaled to {speed.KERNEL_REF_S} s per kernel",
    }


@dataclass
class Pass:
    traced: bool
    start: float                   # perf_counter stamps of the pass
    end: float
    timings: list[tuple[float, float, float]]  # (latency, start, end) per request
    layers: dict = field(default_factory=dict)  # raw per-layer metrics, if traced


class Run:
    """The passes of one workload, their timings and their verdicts."""

    def __init__(self, workload, seed: int, cli, modules, trace: bool = False,
                 speedometer: speed.Speedometer | None = None):
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.speed = speedometer or speed.Speedometer()
        self.isolation = harness.Isolation(modules)
        self.tracer = (tracing.Tracer(modules, self.isolation.caches, self.speed.clock)
                       if trace else None)
        self.requests = workload.requests(seed)
        self.digests = None
        if seed == DEFAULT_SEED:
            self.digests = json.loads(DIGESTS.read_text()).get(workload.name, {})
        self.reference: dict[tuple, str] = {}       # argv -> first checked stdout
        self.verdict: dict[tuple, str | None] = {}  # argv -> failure reason
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.passes: list[Pass] = []
        self.top_spans: list = []

    def run(self, seconds: float, deadline: float) -> None:
        kinds = [False, True] if self.tracer else [False]
        cost = {False: [], True: []}
        started = time.perf_counter()
        self.speed.start()
        try:
            while True:
                traced = kinds[len(self.passes) % len(kinds)]
                t = time.perf_counter()
                self.run_pass(traced, deadline)
                cost[traced].append(time.perf_counter() - t)
                elapsed = time.perf_counter() - started
                if len(self.passes) < len(kinds):
                    continue
                upcoming = kinds[len(self.passes) % len(kinds)]
                if (elapsed + statistics.median(cost[upcoming]) > seconds
                        or time.perf_counter() > deadline):
                    break
        finally:
            self.speed.stop()

    def run_pass(self, traced: bool, deadline: float) -> None:
        if traced:
            self.tracer.reset_pass()
            self.tracer.install()
        outcomes, leaks = [], {}
        start = time.perf_counter()
        try:
            for i, argv in enumerate(self.requests):
                leak = self.isolation.reset()
                if leak:
                    leaks[i] = leak
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    now = time.perf_counter()
                    outcomes.append(harness.Outcome(
                        argv, 0.0, error="not run: the run's time budget is spent",
                        start=now, end=now))
                    continue
                outcomes.append(harness.execute(
                    self.cli, argv, min(REQUEST_LIMIT_S, remaining), self.speed.clock))
                if traced:
                    self.tracer.end_request()
        finally:
            if traced:
                self.tracer.uninstall()
        record = Pass(traced, start, time.perf_counter(),
                      [(o.latency, o.start, o.end) for o in outcomes])
        if traced:
            record.layers = self.tracer.pass_metrics()
            self.top_spans = self.tracer.top_spans()
        self.passes.append(record)
        self.judge(outcomes, leaks)

    def judge(self, outcomes, leaks) -> None:
        parsed = {}
        for o in outcomes:
            if o.error is None and o.rc == 0:
                try:
                    parsed[o.argv] = json.loads(o.stdout)
                except ValueError:
                    pass
        for i, o in enumerate(outcomes):
            reason = leaks.get(i) or self._judge_one(o, parsed)
            self.attempted += 1
            if reason:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"{' '.join(o.argv)[:120]}: {reason}")

    def _judge_one(self, o, parsed) -> str | None:
        if o.error:
            return o.error
        if o.rc != 0:
            return f"exit code {o.rc}"
        if o.argv in self.reference:
            if o.stdout != self.reference[o.argv]:
                return "stdout differs from an earlier run of the same request"
            return self.verdict[o.argv]
        payload = parsed.get(o.argv)
        if payload is None:
            return "stdout is not JSON"
        reason = self._digest_mismatch(o) or self._check(o.argv, payload, parsed)
        self.reference[o.argv] = o.stdout
        self.verdict[o.argv] = reason
        return reason

    def _digest_mismatch(self, o) -> str | None:
        if self.digests is None:
            return None
        want = self.digests.get(" ".join(o.argv))
        if want is None:
            return "no digest recorded for this request at the default seed"
        if hashlib.sha256(o.stdout.encode()).hexdigest() != want:
            return "stdout differs from the digest recorded at the default seed"
        return None

    def _check(self, argv, payload, parsed) -> str | None:
        try:
            return self.workload.check(argv, payload, parsed)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    # -- figures -----------------------------------------------------------

    def latencies(self, normalised: bool = True) -> list[float]:
        """Per-request latencies of the untraced passes."""
        return [self.speed.normalise(lat, s, e) if normalised else lat
                for p in self.passes if not p.traced for lat, s, e in p.timings]

    def pass_count(self, traced: bool) -> int:
        return sum(p.traced == traced for p in self.passes)

    def list_time(self, traced: bool, normalised: bool = True) -> float:
        """Time to finish the request list: the sum over requests of each
        request's median latency across passes, which a burst of host noise
        in one pass moves less than it moves that pass's total."""
        passes = [p for p in self.passes if p.traced == traced]
        return sum(
            statistics.median(self.speed.normalise(lat, s, e) if normalised else lat
                              for lat, s, e in timings)
            for timings in zip(*(p.timings for p in passes)))

    def pass_factor(self, p: Pass) -> float:
        return speed.KERNEL_REF_S / self.speed.kernel_time(p.start, p.end)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> dict:
    values = {
        "setup_s": statistics.median(norm for _, norm in setup),
        "wall_s": run.list_time(traced=False),
        "req_p50_ms": statistics.median(run.latencies()) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(run: Run) -> dict:
    traced = [p for p in run.passes if p.traced]
    out = {}
    for name, unit in tracing.per_layer_units().items():
        if name == tracing.OVERHEAD_METRIC:
            continue
        values = [p.layers[name] for p in traced]
        if None in values:
            out[name] = _metric(None, unit)
            continue
        if unit == "s":
            values = [v * run.pass_factor(p) for v, p in zip(values, traced)]
        middle = statistics.median_low if unit == "count" else statistics.median
        out[name] = _metric(middle(values), unit)
    ratio = run.list_time(traced=True) / run.list_time(traced=False)
    out[tracing.OVERHEAD_METRIC] = _metric(ratio, "ratio")
    return out


def report(run: Run, setup: list[tuple[float, float]]) -> list[str]:
    """Human-readable lines: raw times and the metrics the JSON line does not
    carry."""
    lat = sorted(run.latencies())
    lines = [
        f"passes: {run.pass_count(False)} untraced, {run.pass_count(True)} traced;"
        f" {len(run.requests)} requests per pass; {len(lat)} latency samples;"
        f" {len(run.speed.durations)} speed samples",
        f"fail_ratio: {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted})",
        f"raw: setup_s {statistics.median(r for r, _ in setup):.4f},"
        f" wall_s {run.list_time(False, normalised=False):.4f},"
        f" req_p50_ms {statistics.median(run.latencies(normalised=False)) * 1e3:.4f},"
        f" kernel median {statistics.median(run.speed.durations) * 1e3:.4f} ms",
    ]
    if len(lat) >= 2:
        p90 = statistics.quantiles(lat, n=10)[-1]
        beyond = sum(1 for x in lat if x > p90)
        if beyond >= 10:
            lines.append(f"req_p90_ms: {p90 * 1e3:.4f} ms ({beyond} of {len(lat)} samples beyond)")
        else:
            lines.append(f"req_p90_ms: not reported, only {beyond} of {len(lat)}"
                         " samples lie beyond p90")
    if run.workload.perms_per_pass:
        rate = run.workload.perms_per_pass / run.list_time(False)
        lines.append(f"perms_per_s: {rate:.1f} 1/s")
    for span, calls, total, own, callers in run.top_spans:
        lines.append(f"span {span}: {calls} calls, {total:.4f} s inclusive,"
                     f" {own:.4f} s self (raw, last traced pass); called from "
                     + ", ".join(f"{c} x{n}" for c, n in callers))
    lines.extend(f"FAILED {f}" for f in run.failures)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    process_start = time.perf_counter()
    workload = WORKLOADS[args.workload]
    speedometer = speed.Speedometer()
    try:
        cli = harness.load_permdom(ROOT)
        setup = measure_setup(ROOT, speedometer)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = Run(workload, args.seed, cli, harness.permdom_modules(),
              bool(args.trace), speedometer)
    run.run(args.seconds, process_start + RUN_BUDGET_S)

    print("context " + json.dumps(context(workload, args.seed, args.seconds,
                                          bool(args.trace))))
    for line in report(run, setup):
        print(line)
    metrics = per_layer(run) if args.trace else end_to_end(run, setup)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
