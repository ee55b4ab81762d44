"""degenpoly benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload numeric-sweep --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's ``src/``; nothing is installed.
One process is one client in a closed loop: each CLI request is sent through
``degenpoly.cli.run`` only after the previous one returned, and a pass sends
the workload's whole input once from cold caches.  Passes repeat until the
next one would end after ``--seconds``.  Every pass is checked for exact,
byte-identical output outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the tracing
overhead and the trace's self-consistency.  The metric names and units are
those of ``BENCHMARK.json``.  Human-readable lines (stamp, raw times, sample
counts, metrics with units) come first; the last line is the JSON result.

End-to-end times are host-adjusted.  On a host whose cores are shared, the
same code runs up to twice as slow for minutes at a time, so raw times of
identical code spread by about a quarter between runs.  A fixed probe (a
stdlib ``Fraction`` loop shaped like a ``BiPoly`` product, no repository
code) runs every 0.2 s inside each timed pass and right after each set-up
sample, in the same process; each time, less the probes' own time, is
scaled by the factor ``host_factor`` gives for the probes taken with it.
Every request of a pass is scaled by the factor of its whole pass.  The
result reads as seconds on a host where the probe takes ``PROBE_REF_MS``.
A change to the program moves these times as it moves raw ones; a change of
host speed mostly does not.  Per-layer times from the traced run are raw.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
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
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "out"

# Set-up is timed this many times before the first pass and once after each.
SETUP_AT_START = 9
# End-to-end times are scaled to a host on which the probe takes this long.
PROBE_REF_MS = 10.0
# Wall-clock interval between host probes inside a timed pass.
PROBE_EVERY_S = 0.2
# A trace is consistent when the layers' self times add up to the traced
# pass time within this share; the rest is the benchmark's own loop.
SELF_SUM_TOLERANCE = 0.05

# Runs in a fresh interpreter: times the package import and cache clearing,
# then probes the host from the same process.
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import degenpoly.cli
from degenpoly import families
families.clear_caches()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from run import probe_ms
print(elapsed, *(probe_ms() for _ in range(3)))
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- stamp ---------------------------------------------------------------------


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "degenpoly").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


_PROBE_A = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
_PROBE_B = {(i, j): Fraction(j - 3, i + 5) for i in range(6) for j in range(6)}


def probe_ms() -> float:
    """Host speed: a fixed stdlib loop shaped like a BiPoly product, no repository code.

    The garbage collector is off during the loop: the probe shares the heap
    of the program it runs beside, and a collection it set off would cost
    in proportion to the program's live objects, not to host speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out: dict[tuple[int, int], Fraction] = {}
        for (al, ax), ac in _PROBE_A.items():
            for (bl, bx), bc in _PROBE_B.items():
                key = (al + bl, ax + bx)
                out[key] = out.get(key, 0) + ac * bc
        return (time.perf_counter() - start) * 1000.0
    finally:
        if was_enabled:
            gc.enable()


def host_factor(probes: list[float]) -> float:
    """``PROBE_REF_MS`` times the mean host speed (1 / probe time) over the probes.

    Probes are evenly spaced in time, so this weights each stretch of the
    work by the speed the host had then: work that ran half its time at
    half speed is scaled back exactly.  A probe slowed by preemption adds a
    speed near zero, which moves the mean by less than one probe's share.
    """
    return PROBE_REF_MS * statistics.fmean(1.0 / took for took in probes)


class HostClock:
    """Samples host speed while work runs and scales times to the reference host.

    Host speed changes within a single multi-second request, so probes run
    inside the timed work itself, every ``PROBE_EVERY_S`` from a timer
    signal; ``spent`` counts the seconds they took, which the timing code
    subtracts.  The scale factor for a piece of work is ``host_factor`` of
    the probes taken during it.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.probes.append(probe_ms())
        self.spent += time.perf_counter() - start

    def measure(self, fn, *args):
        """``(fn(*args), factor)``, probing during the call and once after it."""
        first = len(self.probes)
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()
        return result, host_factor(self.probes[first:])

    def add(self, probes: list[float]) -> float:
        """Record probes taken elsewhere; the factor they give."""
        self.probes += probes
        return host_factor(probes)


def setup_once() -> tuple[float, list[float]]:
    """A fresh interpreter's seconds to import the package and clear its caches,
    with the host probes it took right after."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    elapsed, *probes = (float(word) for word in done.stdout.split())
    return elapsed, probes


# -- passes --------------------------------------------------------------------


def run_pass(cli, families, argvs: list[list[str]], host: HostClock):
    """One cold pass: (seconds, per-request seconds, [(exit code, output)]).

    Time the host probes took inside the pass is left out of every timing.
    """
    families.clear_caches()
    latencies: list[float] = []
    results: list[tuple[int, str]] = []
    clock = time.perf_counter
    pass_spent = host.spent
    start = clock()
    for argv in argvs:
        buffer = io.StringIO()
        spent = host.spent
        begin = clock()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.run(argv)
        except Exception:  # a crashed request is a failed operation, not a crashed run
            traceback.print_exc()
            code = -1
        end = clock()
        latencies.append(end - begin - (host.spent - spent))
        results.append((code, buffer.getvalue()))
    return clock() - start - (host.spent - pass_spent), latencies, results


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for term in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(sorted_values: list[float], share: float) -> float:
    """The Harrell-Davis estimate of a quantile: a beta-weighted mean of the
    order statistics.  Where a few distinct requests make up a pass, one
    order statistic is one request's time; the weights spread the estimate
    over the neighbouring requests instead of jumping between them.  On
    tabulate-symbolic (24 requests) this halves the run-to-run spread of
    p50 against ``statistics.quantiles(method="inclusive")``; on
    numeric-sweep (324 requests) the two agree."""
    n = len(sorted_values)
    a, b = (n + 1) * share, (n + 1) * (1 - share)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_values))


def _seconds_list(values: list[float]) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def measure_end_to_end(workload, argvs, seconds, cli, families):
    host = HostClock()
    setup_raw: list[float] = []
    setup_adjusted: list[float] = []

    def take_setup() -> None:
        raw, probes = setup_once()
        setup_raw.append(raw)
        setup_adjusted.append(raw * host.add(probes))

    for _ in range(SETUP_AT_START):
        take_setup()
    raw_passes: list[float] = []
    durations: list[float] = []
    pass_latencies: list[list[float]] = []
    steps: list[float] = []
    checks = []
    begin = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        (duration, latencies, results), factor = host.measure(
            run_pass, cli, families, argvs, host
        )
        raw_passes.append(duration)
        durations.append(duration * factor)
        pass_latencies.append(sorted(seconds * factor for seconds in latencies))
        checks.append(workload.check_pass(argvs, results))
        del results
        take_setup()
        now = time.perf_counter()
        steps.append(now - step_start)
        if now - begin + statistics.median(steps) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish(argvs, checks)
    pass_s = statistics.median(durations)
    ops = checks[0].attempted
    # Percentiles are taken within each pass, then the median over passes.
    requests = len(argvs)
    metrics = {
        "setup_s": statistics.median(setup_adjusted),
        "pass_s": pass_s,
        "ops_per_s": ops / pass_s,
        "latency_p50_ms": statistics.median(percentile(p, 0.50) for p in pass_latencies)
        * 1000.0,
        "latency_p95_ms": statistics.median(percentile(p, 0.95) for p in pass_latencies)
        * 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"passes: {len(durations)}",
        "raw pass_s: " + _seconds_list(raw_passes),
        "host-adjusted pass_s: " + _seconds_list(durations),
        f"ops per pass: {ops} {workload.op_unit}",
        f"latency samples: {requests} requests per pass "
        f"({requests - math.ceil(requests * 0.95)} beyond p95), {len(durations)} passes",
        "raw setup_s: " + _seconds_list(setup_raw),
        f"host probes: {len(host.probes)}, median {statistics.median(host.probes):.3f} ms",
    ]
    return metrics, checks, notes, statistics.median(host.probes)


def measure_traced(workload, argvs, seconds, cli, families, trace_path):
    import tracing

    # Probes run only between passes here: inside a traced pass their time
    # would land in whichever layer's span was open.
    host = HostClock()
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict[str, float]] = []
    steps: list[float] = []
    checks = []
    inconsistent = 0
    last_dump = None
    begin = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        duration, _, results = run_pass(cli, families, argvs, host)
        plain.append(duration)
        checks.append(workload.check_pass(argvs, results))
        del results

        tracer.reset()
        restore = tracing.install(tracer)
        origin = time.perf_counter()
        try:
            duration, _, results = run_pass(cli, families, argvs, host)
        finally:
            restore()
        traced.append(duration)
        check = workload.check_pass(argvs, results)
        checks.append(check)
        metrics = tracing.pass_metrics(tracer)
        metrics["cli.bytes_out"] = sum(len(text.encode("utf-8")) for _, text in results)
        metrics["bipoly.out_terms"] = check.out_terms
        metrics["bipoly.out_max_coeff_bits"] = check.out_max_coeff_bits
        metrics["trace.pass_s"] = duration
        if abs(metrics["trace.self_sum_s"] - duration) > SELF_SUM_TOLERANCE * duration:
            inconsistent += 1
        per_pass.append(metrics)
        last_dump = tracing.dump(tracer, origin)
        del results
        host.sample()
        now = time.perf_counter()
        steps.append(now - step_start)
        if now - begin + statistics.median(steps) > seconds:
            break
    tracer.reset()
    workload.finish(argvs, checks)

    keys = set().union(*per_pass)
    metrics = {key: statistics.median(m.get(key, 0.0) for m in per_pass) for key in keys}
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    metrics["host.probe_ms"] = statistics.median(host.probes)

    TRACE_DIR.mkdir(exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, **last_dump}, handle, separators=(",", ":"))
    properties = ("families.build_egf.repeat_share", "families.triangle.tables",
                  "bipoly.out_terms", "bipoly.out_max_coeff_bits")
    notes = [
        f"pairs of untraced and traced passes: {len(traced)}",
        "raw untraced pass_s: " + _seconds_list(plain),
        "raw traced pass_s: " + _seconds_list(traced),
        "tracing overhead: "
        f"{metrics['trace.pass_s']:.4f} s traced - {metrics['trace.untraced_pass_s']:.4f} s "
        f"untraced = {metrics['trace.overhead_s']:.4f} s per pass",
        f"layer self times sum to {metrics['trace.self_sum_s']:.4f} s of "
        f"{metrics['trace.pass_s']:.4f} s traced; passes outside "
        f"{SELF_SUM_TOLERANCE:.0%}: {inconsistent}",
        "workload properties per traced pass: "
        + "; ".join(f"{p} " + " ".join(f"{m.get(p, 0):g}" for m in per_pass)
                    for p in properties),
        f"spans of the last traced pass: {trace_path.relative_to(ROOT)}",
    ]
    return metrics, checks, notes, inconsistent == 0


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "degenpoly" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/degenpoly or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    from degenpoly import cli, families

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: degenpoly imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    argvs = workload.requests(args.seed)
    consistent = True
    if args.trace:
        trace_path = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        computed, checks, notes, consistent = measure_traced(
            workload, argvs, args.seconds, cli, families, trace_path
        )
        probe = computed["host.probe_ms"]
        wanted = spec["per_layer"]
    else:
        computed, checks, notes, probe = measure_end_to_end(
            workload, argvs, args.seconds, cli, families
        )
        wanted = spec["end_to_end"]
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "host_probe_ms": round(probe, 4),
        "probe_ref_ms": PROBE_REF_MS,
    }
    print("stamp " + json.dumps(stamp))

    attempted = sum(check.attempted for check in checks)
    failed = sum(check.failed for check in checks)
    # A layer the workload never reaches has no spans: its counts and times are 0.
    metrics = {
        m["name"]: {
            "value": computed.get(m["name"], 0) if args.trace else computed[m["name"]],
            "unit": m["unit"],
        }
        for m in wanted
    }
    for note in notes:
        print(note)
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} failed of {attempted} "
          f"{workload.op_unit}, all passes)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
