"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload node-1shot --seed 0 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` next
to this directory. ``--trace 0`` runs one round of the workload (a round is
sized to about ``--seconds`` on the reference machine) and prints the
end-to-end metrics;
``--trace 1`` runs a warm-up round, an untraced round and a traced round,
and prints the per-layer metrics. Progress and check failures go to stderr;
the last line of stdout is the result.
"""

import os
import sys
import time

T0 = time.perf_counter()

# one BLAS/OpenMP thread: the package is single-threaded Python, and a
# second BLAS thread on a small machine burns CPU without saving wall time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _process_age() -> float:
    """Seconds since this process started, or 0 when /proc cannot say."""
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


AGE_AT_T0 = _process_age()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("node-1shot", "pretrain-large", "graph-5shot-cli")


def _rss_mb() -> float:
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _malloc_trim() -> None:
    """Hand freed heap pages back to the OS so RSS shows the live set."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


class Stages:
    """Times named stages of one round. With ``memory`` it also samples
    RSS from a thread and keeps each stage's peak above its starting RSS
    (tracemalloc would be exact, but slows pre-training about tenfold)."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.seconds = {}
        self.peak_mb = {}

    @contextmanager
    def __call__(self, name):
        if self.memory:
            _malloc_trim()
            base = peak = _rss_mb()
            done = threading.Event()

            def sample():
                nonlocal peak
                while not done.wait(0.002):
                    peak = max(peak, _rss_mb())

            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - start
            if self.memory:
                done.set()
                sampler.join(timeout=5.0)
                self.peak_mb[name] = max(peak, _rss_mb()) - base


def run_round(workload, inputs, index, memory=False):
    stages = Stages(memory)
    start = time.perf_counter()
    out = workload.run_round(inputs, stages, index)
    out["run_s"] = time.perf_counter() - start
    out["stages"] = stages
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "domainmix" / "__init__.py").is_file():
        print(f"error: no domainmix package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_trace
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workload, workdir, bench_trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir, bench_trace) -> int:
    tracer = bench_trace.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inputs = workload.setup(args.seed, workdir)
    setup_s = AGE_AT_T0 + time.perf_counter() - T0
    if tracer:
        tracer.uninstall()

    rounds = []
    if tracer:
        # later rounds in a process run faster than the first (warm heap,
        # other GC state), so the overhead compares two warm rounds
        rounds.append(run_round(workload, inputs, 0))
        rounds.append(run_round(workload, inputs, 1))
        tracer.install()
        rounds.append(run_round(workload, inputs, 2, memory=True))
        tracer.uninstall()
    else:
        # one cold round, as a user's process runs it: later rounds in the
        # same process run up to a third faster (warm heap, other GC state)
        rounds.append(run_round(workload, inputs, 0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
        + ", ".join(
            f"{r['run_s']:.2f}s ({', '.join(f'{k} {v:.2f}s' for k, v in r['stages'].seconds.items())})"
            for r in rounds
        ),
        file=sys.stderr,
    )

    failures = workload.check(inputs, rounds[0])
    for r in rounds[1:]:
        if r["accuracies"] != rounds[0]["accuracies"]:
            failures.append("per-episode accuracies differ between rounds of one seed")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)

    if tracer:
        metrics = bench_trace.layer_metrics(tracer)
        mem = rounds[2]["stages"].peak_mb
        metrics["mem.pretrain_peak_mb"] = (mem["pretrain"], "MB")
        metrics["mem.episodes_peak_mb"] = (mem["episodes"], "MB")
        metrics["mem.peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["adapt.accuracy_pct"] = (100.0 * statistics.fmean(rounds[0]["accuracies"]), "%")
        metrics["trace.overhead_s"] = (rounds[2]["run_s"] - rounds[1]["run_s"], "s")
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        stage_s = rounds[0]["stages"].seconds
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (rounds[0]["run_s"], "s"),
            "pretrain_s": (stage_s["pretrain"], "s"),
            "episodes_per_s": (workload.config["repeats"] / stage_s["episodes"], "1/s"),
        }
    result = {
        "correct": not failures,
        "attempted": len(rounds) * workload.operations(),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
