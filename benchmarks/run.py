"""Benchmark of planarsig's ``compute`` and ``fuzz`` commands.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload fuzz-small --seed 1 --seconds 35 --trace 0

One process runs one workload with a closed loop: a single caller starts
the next op only after the previous one returned.  Before timing, one
untimed op warms the process up.  Every op's exit code, verdict and
stdout digest are checked against ``reference/``.

With ``--trace 0`` the run is untraced and prints the end-to-end
metrics: ``setup_s`` (median wall time of fresh interpreters that start,
import ``planarsig.cli`` and build its parser), ``ops_per_s``,
``op_p50_ms`` and ``peak_rss_mb``.  ``op_p90_ms`` and the failed-op
ratio are printed above the result line.

``ops_per_s`` and ``op_p50_ms`` are scaled to a fixed host speed.  A
shared host can run the same op at half its speed for a minute and then
recover, which moves raw wall times far more than the changes the
benchmark must resolve.  So about every ``SPEED_EVERY_S`` of op time the
run also times a fixed pure-Python job that does not touch planarsig
(``HostSpeed``), and scales each op's latency by ``REFERENCE_MS`` over
the median of the nearby samples of that job: an op that takes twice as
long because the host runs at half speed reads the same.  A change to
the program moves the op times and not the job's, so it shows in full.
``ops_per_s`` counts verified ops per second of scaled op time; the time
spent checking outputs and sampling the host speed is left out.
The unscaled figures and the host speed are printed above the result
line.

With ``--trace 1`` the run wraps the package's public functions (see
``layers.py``) and prints per-layer metrics instead.  It runs the
seed's first ``trace_ops`` ops as one block, again and again until the
time is up; call counts and sizes come from the first pass, so they
repeat exactly for a given seed, and self times are averaged over all
passes.  ``trace_overhead_ratio`` is the traced over the untraced wall
time of one pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from layers import LayerTracer, layer_metrics, required_keys
from workloads import ROOT, WORKLOADS, Op, check_output, import_cli, run_op

SETUP_PROCESSES = 21
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import planarsig.cli as cli; cli.build_parser()"
)
P90_MIN_OPS = 100

REFERENCE_MS = 30.0  # HostSpeed's job time on the host speed the metrics are scaled to
SPEED_EVERY_S = 0.5  # op time between two samples of the host speed
SPEED_WINDOW = 2  # samples on each side that a sample's median takes in


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class HostSpeed:
    """Samples how fast the host runs Python right now, by timing a fixed
    job that does the kind of work planarsig does, without planarsig: an
    integer loop and Gaussian elimination over ``Fraction``.  On a 2-core
    shared host this pair tracked the op times of the workloads more
    closely than jobs that multiply 4000-bit integers or build many small
    objects."""

    def __init__(self):
        rng = random.Random(0)
        self._matrix = [[Fraction(rng.randint(-9, 9)) for _ in range(18)] for _ in range(18)]
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        rows = [row[:] for row in self._matrix]
        for c, pivot_row in enumerate(rows):
            pivot = pivot_row[c]
            if pivot:
                for r in range(c + 1, len(rows)):
                    f = rows[r][c] / pivot
                    rows[r] = [x - f * y for x, y in zip(rows[r], pivot_row)]
        self.samples.append(time.perf_counter() - start)

    def scales(self) -> list[float]:
        """For each sample, ``REFERENCE_MS`` over the median of the samples
        within ``SPEED_WINDOW`` of it: the factor that scales op times
        to the reference host speed."""
        n = len(self.samples)
        return [
            REFERENCE_MS / 1000
            / statistics.median(self.samples[max(0, j - SPEED_WINDOW): j + SPEED_WINDOW + 1])
            for j in range(n)
        ]


def measure_setup() -> float:
    """Median wall time of fresh interpreters; the first, untimed one
    compiles the bytecode.  No timeout is passed: with one, ``wait``
    polls with sleeps of up to 50 ms, which would round the times.  This
    time is not scaled: interpreter start-up follows the host-speed job
    too loosely for the scaling to steady it."""
    command = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_PROCESSES + 1):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


class Loop:
    """Runs ops one at a time, checks each, and counts attempts and failures."""

    def __init__(self, cli, reference: list[str]):
        self.cli = cli
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op) -> float:
        """Run and check one op; returns its latency in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            code, stdout, stderr = run_op(self.cli, op)
        except (Exception, SystemExit) as e:  # an op that raises is a failed op
            self.failures.append(f"op {op.index}: raised {type(e).__name__}: {e}")
            return time.perf_counter() - start
        latency = time.perf_counter() - start
        problem = check_output(op, code, stdout, stderr, self.reference[op.index])
        if problem:
            self.failures.append(f"op {op.index}: {problem}")
        return latency


def untraced(workload, cli, reference, order, seconds) -> tuple[dict, Loop]:
    setup_s = measure_setup()
    loop = Loop(cli, reference)
    speed = HostSpeed()
    loop.run(workload.op(order[-1]))  # warm-up, untimed
    speed.sample()
    speed.samples.clear()
    gc.collect()
    timed = order[:-1]
    segments: list[list[float]] = [[]]  # op latencies before each speed sample
    n = 0
    since_sample = 0.0
    failed_before = len(loop.failures)
    deadline = time.perf_counter() + seconds
    while not n or time.perf_counter() < deadline:
        latency = loop.run(workload.op(timed[n % len(timed)]))
        n += 1
        segments[-1].append(latency)
        since_sample += latency
        if since_sample >= SPEED_EVERY_S:
            speed.sample()
            segments.append([])
            since_sample = 0.0
    if segments[-1]:
        speed.sample()
    else:
        segments.pop()
    wraps = (n - 1) // len(timed)
    if wraps:
        print(f"# the run wrapped round its pool of {len(timed)} ops {wraps} time(s)")

    raw_ms = [x * 1000 for segment in segments for x in segment]
    lat_ms = sorted(
        x * 1000 * scale for segment, scale in zip(segments, speed.scales()) for x in segment
    )
    failed = len(loop.failures) - failed_before
    print(f"# timed ops {n}, failed {failed}, failed_op_ratio {failed / n:.6g} ({failed}/{n})")
    job_ms = statistics.median(speed.samples) * 1000
    print(f"# host speed: job median {job_ms:.6g} ms over {len(speed.samples)} samples "
          f"(reference {REFERENCE_MS:g} ms); unscaled ops_per_s "
          f"{(n - failed) * 1000 / sum(raw_ms):.6g}, op_p50_ms {statistics.median(raw_ms):.6g}")
    if n >= P90_MIN_OPS:
        print(f"# op_p90_ms {statistics.quantiles(lat_ms, n=10)[-1]:.6g} ({n} samples)")
    else:
        print(f"# op_p90_ms not reported: {n} samples, fewer than {P90_MIN_OPS}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((n - failed) * 1000 / sum(lat_ms), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, loop


def traced(workload, cli, reference, order, seconds) -> tuple[dict, Loop]:
    block = [workload.op(i) for i in order[: workload.trace_ops]]
    loop = Loop(cli, reference)
    loop.run(workload.op(order[-1]))  # warm-up, untimed
    gc.collect()
    tracer = LayerTracer()
    tracer.install()
    try:
        pass_s = []
        deadline = time.perf_counter() + seconds
        while not pass_s or time.perf_counter() < deadline:
            pass_s.append(sum(loop.run(op) for op in block))
            if len(pass_s) == 1:
                calls, sizes = Counter(tracer.calls), Counter(tracer.sizes)
    finally:
        tracer.remove()
    untraced_pass_s = sum(loop.run(op) for op in block)

    command = block[0].argv[0]
    missing = [k for k in required_keys(command) if not calls[k]]
    if missing:
        print(
            f"error: wrapped names recorded no calls on {workload.name}: {', '.join(missing)}",
            file=sys.stderr,
        )
        sys.exit(3)
    metrics = layer_metrics(
        tracer.self_ns, calls, sizes, timed_ops=len(pass_s) * len(block), counted_ops=len(block)
    )
    metrics["trace_overhead_ratio"] = (statistics.median(pass_s) / untraced_pass_s, "ratio")
    print(f"# traced {len(pass_s)} pass(es) of {len(block)} ops; calls and sizes from the first pass")
    return metrics, loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = workload.load_reference()
    order = workload.order(args.seed)

    print(f"# workload {workload.name} ({workload.size}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu_model()}")
    measure = traced if args.trace else untraced
    metrics, loop = measure(workload, cli, reference, order, args.seconds)

    for problem in loop.failures[:20]:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
