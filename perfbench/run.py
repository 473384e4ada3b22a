"""Benchmark of the gaussctm CLI studies.

    python3 perfbench/run.py --workload {throughput,traveltime,network}
        --seed N --seconds S --trace {0,1} [--quick]

Run from the root of a source checkout: the package is imported from
`src/` and the study inputs are derived from `configs/` (see
`workloads.py`).  One run is one fresh process that runs one workload
in whole rounds for about S seconds; the last line of standard output
is a JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh interpreters, from interpreter start
               until gaussctm is imported and the workload's configs
               are read;
  wall_s       median over rounds of the time from the first call into
               a study until the round's last CSV is written and closed;
  peak_rss_mb  peak resident size of this process (probes excluded).
--trace 1 reports the per-layer metrics of one traced round (see
`tracer.py`), with the traced wall time next to an untraced round's.
--quick runs one round of smaller inputs without set-up probes.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin the BLAS pools before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = HERE / "out"
SETUP_PROBES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def os_threads():
    """Threads of this process, as the kernel counts them."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def probe_setup(configs):
    """Seconds from starting a fresh interpreter until it has imported
    gaussctm and read the configs.  Both ends read CLOCK_MONOTONIC,
    which all processes share."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
         *map(str, configs)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def csv_rows(studies):
    rows = 0
    for s in studies:
        if s.out.exists():
            with open(s.out) as fh:
                rows += sum(1 for _ in fh) - 1
    return rows


class Runner:
    """Runs whole rounds of one workload and tallies its operations."""

    def __init__(self, cli, studies, check):
        self.cli, self.studies, self.check = cli, studies, check
        self.attempted = self.failed = 0
        self.correct = True

    def round(self):
        """One round; returns its wall time.  Checks run after the clock."""
        for s in self.studies:
            s.out.unlink(missing_ok=True)
        gc.collect()
        t0 = time.perf_counter()
        for s in self.studies:
            try:
                self.cli.main(s.argv())
            except Exception as exc:  # the study's points count as failed
                log(f"{s.name}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        for point, reasons in self.check().items():
            self.attempted += 1
            if reasons:
                self.failed += 1
                log(f"FAILED {point}: {'; '.join(reasons)}")
                if reasons != ["no output"]:
                    self.correct = False
        return wall

    def rounds(self, seconds, round_fn=None):
        """Whole rounds until another would overrun `seconds` (at least one)."""
        round_fn = round_fn or self.round
        results = []
        t0 = time.perf_counter()
        while True:
            results.append(round_fn())
            elapsed = time.perf_counter() - t0
            if elapsed * (len(results) + 1) / len(results) > seconds:
                return results


def traced_run(runner, gaussctm, seconds, outdir):
    t_start = time.perf_counter()
    untraced = runner.round()
    spans = tracer.Tracer()
    spans.install(gaussctm)
    rounds = []

    def traced_round():
        spans.reset()
        wall = runner.round()
        arrays = spans.spans()
        rounds.append((wall, spans.metrics(arrays, wall, csv_rows(runner.studies)),
                       arrays))
        return wall
    try:
        runner.rounds(seconds - (time.perf_counter() - t_start), traced_round)
    finally:
        spans.uninstall()
    rounds.sort(key=lambda r: r[0])
    wall, metrics, arrays = rounds[(len(rounds) - 1) // 2]
    np.savez_compressed(outdir / "spans.npz", **arrays)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_pct"] = (wall / untraced - 1.0) * 100.0
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (SRC / "gaussctm" / "__init__.py").is_file() or not CONFIGS.is_dir():
        log(f"no gaussctm sources under {SRC} or no {CONFIGS}: run from "
            "the root of a source checkout")
        return 2
    outdir = OUT / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    studies, check = WORKLOADS[args.workload](CONFIGS, outdir, args.seed,
                                              quick=args.quick)

    setups = []
    if not args.trace and not args.quick:
        setups = [probe_setup([s.config for s in studies])
                  for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import scipy
    import gaussctm.cli

    log(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} "
        + " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
        + f" os_threads={os_threads()}")
    runner = Runner(gaussctm.cli, studies, check)
    if args.trace:
        metrics = {k: (v, tracer.unit(k)) for k, v in traced_run(
            runner, gaussctm, args.seconds, outdir).items()}
    else:
        walls = ([runner.round()] if args.quick
                 else runner.rounds(args.seconds))
        log("round wall_s: " + " ".join(f"{w:.4f}" for w in walls))
        if setups:
            log("setup_s: " + " ".join(f"{s:.4f}" for s in setups))
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if setups:
            values["setup_s"] = statistics.median(setups)
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
