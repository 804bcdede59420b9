"""levylil benchmark: one client, closed loop, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, read from
spans recorded around levylil's public functions (see tracing.py).  The line
before it holds the run facts.  bench/README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, layer_metrics, write_jsonl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))
# at most nproc BLAS threads; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

WORKLOAD_NAMES = ("report_example", "levy_mc", "feller_chung")
SETUP_REPEATS = 3
# One pass of report_example takes 14-22 s on a shared 2-core machine and
# varies by +-15% from pass to pass, so every end-to-end run times at least
# two passes and reports their median.
MIN_PASSES = 2
# A traced run makes at least this many rounds of one plain and one traced
# pass, in alternating order, so each order is measured at least once.
MIN_TRACED_ROUNDS = 2
PROBE_ITERATIONS = 300_000
OUT_DIR = ROOT / ".bench_out"
# unit of a layer metric by the last part of its name; the rest are seconds
UNITS = {"calls": "count", "increments": "count", "bytes": "B", "increments_per_s": "1/s"}
REQUIRED = (ROOT / "src" / "levylil" / "__init__.py", ROOT / "docs" / "example_scenario.json")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed phase (BENCHMARK.json's run_seconds); "
                        "MIN_PASSES passes always run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time setup_s)")
    return p.parse_args(argv)


def time_setup(args):
    """Median over fresh interpreters of start-up to workload ready, in s."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append(ready - start)
    return statistics.median(samples)


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path)
               for f in files)


def host_probe():
    """Seconds a fixed pure-Python loop takes: median of 3 repeats.  Timed
    before every pass, it shows whether the host itself ran slower."""
    samples = []
    for _ in range(3):
        start, acc = time.perf_counter(), 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def cpu_seconds():
    t = os.times()
    return t.user + t.system


@dataclass
class Pass:
    """One pass of a workload: its timed program calls, then its checks."""

    wall_s: float
    cpu_s: float
    failures: list
    output_bytes: int
    spans: list
    probe_s: float


def run_pass(workload, inputs, trace=False) -> Pass:
    probe_s = host_probe()
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="pass-", dir=tmp)
    tracer = Tracer() if trace else None
    restore = tracer.install() if trace else None
    cpu0, start = cpu_seconds(), time.perf_counter()
    try:
        out = workload.run(inputs, outdir)
    except Exception:
        traceback.print_exc()
        out = None
    finally:
        wall_s = time.perf_counter() - start
        cpu_s = cpu_seconds() - cpu0
        if restore:
            restore()
    try:
        failures = ["raised"] if out is None else workload.check(inputs, out, outdir)
    except Exception:
        traceback.print_exc()
        failures = ["check raised"]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    output_bytes = dir_bytes(outdir)
    shutil.rmtree(outdir)
    return Pass(wall_s, cpu_s, failures, output_bytes, tracer.spans if trace else [],
                probe_s)


def run_rounds(workload, inputs, seconds, min_rounds, modes=(False,)):
    """Closed loop: rounds of one pass per tracing mode, back to back, at
    least ``min_rounds``, then while the next round is expected to end within
    ``seconds``.  Each round is a list of passes in the order of ``modes``.
    With two modes the order within a round alternates (plain then traced,
    traced then plain), so a drift in machine speed does not favour either."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        order = modes if len(rounds) % 2 == 0 else modes[::-1]
        done = {trace: run_pass(workload, inputs, trace) for trace in order}
        rounds.append([done[trace] for trace in modes])
        took = time.perf_counter() - began
        if len(rounds) >= min_rounds and time.perf_counter() - start + took > seconds:
            return rounds


def run_facts(args, inputs, passes):
    import numpy
    import scipy
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, check=True).stdout.strip() or 0)
    except (OSError, subprocess.CalledProcessError, ValueError):
        l3 = None
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": NPROC, "blas_threads": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "l3_bytes": l3,
            "largest_array_bytes_computed": inputs["largest_array_bytes"],
            "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
            "output_bytes": [p.output_bytes for p in passes],
            "host_probe_s": [p.probe_s for p in passes],
            "host_probe_median_s": statistics.median(p.probe_s for p in passes)}


def main(argv=None):
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a levylil checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        from workloads import WORKLOADS
        WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return 0

    setup_s = time_setup(args) if args.trace == 0 else None
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)

    if args.trace == 0:
        passes = [r[0] for r in run_rounds(workload, inputs, args.seconds, MIN_PASSES)]
        metrics = {
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        facts = run_facts(args, inputs, passes)
    else:
        rounds = run_rounds(workload, inputs, args.seconds, MIN_TRACED_ROUNDS,
                            modes=(False, True))
        untraced, traced = [r[0] for r in rounds], [r[1] for r in rounds]
        passes = untraced + traced
        layers = [layer_metrics(p.spans) for p in traced]
        wall = statistics.median(p.wall_s for p in untraced)
        cpu = statistics.median(p.cpu_s for p in untraced)
        metrics = {name: (statistics.median(layer[name] for layer in layers),
                          UNITS.get(name.rsplit(".", 1)[-1], "s")) for name in layers[0]}
        metrics.update({
            "process.cpu_s": (cpu, "s"),
            "process.cpu_util": (cpu / wall, "ratio"),
            "output_mb": (statistics.median(p.output_bytes for p in untraced) / 1e6, "MB"),
            "trace.overhead_frac":
                (statistics.median(t.wall_s / p.wall_s for p, t in rounds) - 1.0, "ratio"),
        })
        facts = run_facts(args, inputs, passes)
        trace_dir = OUT_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_jsonl(trace_dir / f"{args.workload}-seed{args.seed}.jsonl", facts,
                    [p.spans for p in traced])

    failed = sum(1 for p in passes if p.failures)
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
