#!/usr/bin/env python3
"""xbarsim benchmark: one workload per run, closed loop with one caller.

    python3 bench/run.py --workload cost_sweep --seed 0 --seconds 25 --trace 0

Each op is one ``xbarsim`` command line run in-process through
``xbarsim.cli.main`` with stdout captured and ``--out`` pointed at a
scratch directory; the next op starts when the previous one returns.
Ops run until their summed time reaches ``--seconds``; every op's output
is checked outside the timed section, and a failed check fails the op.

``--trace 0`` reports the end-to-end metrics (host time). ``--trace 1``
runs the same op sequence untraced for half the time, replays those ops
with every public xbarsim function wrapped in a span recorder, checks
the replay's outputs are byte-equal and its counts agree with SimStats,
and reports the per-layer metrics plus the tracing overhead.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. Results, provenance and spans are written under
``.bench_out/`` in the repository root. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Ops multiply matrices of at most 128 x 128: one BLAS thread, on every
# commit, keeps a single caller's timings free of thread scheduling.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
P90_TAIL = 10  # samples wanted beyond the 90th percentile
CHILD_TIMEOUT_S = 170


@dataclass
class OpRecord:
    op: object
    seconds: float
    at: float = 0.0  # time.monotonic() midway through the op
    ok: bool = False
    digest: str = ""
    error: str = ""


def load_cli():
    """Import xbarsim from this checkout's src/ (there is no build step).

    BLAS threads are pinned first, before numpy loads.
    """
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("XBARSIM_OUT_DIR", None)  # reports must land in --out
    sys.path.insert(0, str(SRC))
    try:
        import xbarsim.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import xbarsim from {SRC}: {exc}") from None
    if SRC.resolve() not in Path(xbarsim.__file__).resolve().parents:
        raise SystemExit(f"bench: xbarsim imported from {xbarsim.__file__}, not {SRC}")
    return xbarsim.cli


class Runner:
    """Runs one op through xbarsim.cli.main and times only that call."""

    def __init__(self, cli, work_dir: Path):
        self.cli = cli
        self.out_dir = str(work_dir / "out")
        self.exact_dir = str(work_dir / "exact")

    def timed(self, argv, out_dir: str | None = None, tracer=None) -> tuple[float, float, str]:
        """(seconds, moment, error): moment is time.monotonic() midway
        through the op, and error is empty when the op exited 0."""
        out_dir = out_dir or self.out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        error = ""
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            if tracer is not None:
                tracer.open("cli")
            try:
                rc = self.cli.main([*argv, "--out", out_dir])
            except Exception:  # the op fails; the loop goes on
                rc, error = None, traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.close()
                seconds = time.perf_counter() - start
                moment = time.monotonic() - seconds / 2
        if rc not in (0, None):
            error = f"exit code {rc}"
        return seconds, moment, error

    def untimed(self, argv, out_dir: str) -> None:
        _, _, error = self.timed(argv, out_dir)
        if error:
            raise RuntimeError(f"reference op {' '.join(argv)} failed: {error}")


def make_check(workload: str, seed: int, runner: Runner):
    import workloads as wl

    if workload == "cost_sweep":
        checker = wl.CostChecker(wl.load_golden()["cost_sweep"] if seed == 0 else None)
        return lambda op, index: checker.check(op, index, runner.out_dir)
    return lambda op, index: wl.check_funcsim(op, runner.out_dir, runner.exact_dir,
                                              runner.untimed)


def run_checked(runner: Runner, op, index: int, check) -> OpRecord:
    import workloads as wl

    seconds, moment, error = runner.timed(op.argv)
    rec = OpRecord(op, seconds, moment, error=error)
    if not error:
        try:
            check(op, index)
            rec.digest = wl.output_digest(runner.out_dir)
            rec.ok = True
        except Exception:  # a check that fails or cannot run fails the op
            rec.error = traceback.format_exc()
    if rec.error:
        print(f"op {index} FAILED: {' '.join(op.argv)}\n{rec.error}", file=sys.stderr)
    return rec


def measure(runner: Runner, ops, seconds: float, check, host=None) -> list[OpRecord]:
    """Closed loop: ops back to back until their summed time reaches seconds.

    Checks and host-speed samples run between ops, outside the op timings.
    """
    records: list[OpRecord] = []
    busy = 0.0
    while busy < seconds:
        rec = run_checked(runner, next(ops), len(records), check)
        records.append(rec)
        busy += rec.seconds
        if host is not None:
            host.maybe_sample()
    return records


def setup_samples(args, host) -> list[tuple[float, float]]:
    """(seconds, moment) from fresh process to first op finished, SETUP_REPS times."""
    samples = []
    host.sample()
    for _ in range(SETUP_REPS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-child"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed:\n{proc.stderr}")
        done = float(proc.stdout.split()[-1])
        samples.append((done - start, (start + done) / 2))
        host.sample()
    return samples


def setup_child(args, runner: Runner) -> None:
    import workloads as wl

    _, _, error = runner.timed(next(wl.generate(args.workload, args.seed)).argv)
    if error:
        raise SystemExit(f"setup op failed: {error}")
    print(f"{time.monotonic():.9f}")


def p90(values: list[float]) -> float:
    """Interpolated 90th percentile (the value itself for a single sample)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "xbarsim").rglob("*")):
        if path.suffix in (".py", ".ini"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def provenance(args, n_ops: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_run": n_ops,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_loaded": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def end_to_end(durations: list[float], setup: list[float], rss_mb: float) -> dict:
    n = len(durations)
    return {
        "ops_per_s": (n / sum(durations), "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_p90_s": (p90(durations), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def untraced_run(args, runner: Runner, check) -> tuple[dict, list[OpRecord], dict]:
    from hostspeed import HostSpeed
    import workloads as wl

    host = HostSpeed(wl.HOST_KERNEL[args.workload])
    setup = setup_samples(args, host)
    failed_warmup = warm_up(args, runner, check)
    records = measure(runner, wl.generate(args.workload, args.seed), args.seconds,
                      check, host)
    host.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = end_to_end([r.seconds for r in records], [s for s, _ in setup], rss_mb)
    metrics = end_to_end([r.seconds * host.factor_at(r.at) for r in records],
                         [s * host.factor_at(m) for s, m in setup], rss_mb)
    n = len(records)
    beyond = n - math.ceil(0.9 * n)
    note = "" if beyond >= P90_TAIL else f"; only {beyond} beyond p90, read it as the slowest ops"
    print(f"ops measured: {n}{note}")
    print(f"setup samples (raw s): {', '.join(f'{s:.4f}' for s, _ in setup)}")
    print(f"host speed: {host.kind} reference kernel, median "
          f"{statistics.median(host.seconds) * 1e3:.3f} ms over {len(host.seconds)} samples; "
          f"times are rescaled to {host.nominal_s * 1e3:.1f} ms")
    print("raw host time: " + ", ".join(f"{k} = {v:.6g}" for k, (v, _) in raw.items()))
    extra = {"raw_metrics": {k: v for k, (v, _) in raw.items()},
             "setup_samples_s": [s for s, _ in setup],
             "host_kernel": host.kind,
             "host_samples_s": host.seconds}
    return metrics, failed_warmup + records, extra


def warm_up(args, runner: Runner, check) -> list[OpRecord]:
    """Run and check the first op untimed; probe the funcsim datapath once.

    Returns the warm-up op's record if it failed, so it counts as failed.
    """
    import workloads as wl

    rec = run_checked(runner, next(wl.generate(args.workload, args.seed)), 0, check)
    if rec.op.command == "funcsim":
        wl.bitexact_probe(rec.op.device, args.seed)
    return [] if rec.ok else [rec]


def traced_run(args, runner: Runner, check) -> tuple[dict, list[OpRecord], dict]:
    import tracer as tr
    import workloads as wl

    failed_warmup = warm_up(args, runner, check)
    ref = measure(runner, wl.generate(args.workload, args.seed), args.seconds / 2, check)
    tracer = tr.Tracer()
    replay: list[OpRecord] = []
    with tracer.installed():
        for index, rec in enumerate(ref):
            seconds, moment, error = runner.timed(rec.op.argv, tracer=tracer)
            again = OpRecord(rec.op, seconds, moment, error=error)
            again.digest = "" if error else wl.output_digest(runner.out_dir)
            again.ok = rec.ok and again.digest == rec.digest
            if not again.ok:
                print(f"traced op {index} output differs from the untraced run",
                      file=sys.stderr)
            replay.append(again)
    overhead = (sum(r.seconds for r in replay) / sum(r.seconds for r in ref) - 1) * 100
    mismatches = tr.simstats_mismatches(tracer)
    for m in mismatches:
        print(f"SimStats cross-check failed: {m}", file=sys.stderr)
    values = tr.layer_metrics(tracer, len(replay), overhead)
    metrics = {name: (values[name], unit) for name, unit in tr.PER_LAYER_UNITS.items()}
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.save(str(spans_path))
    print(f"tracing overhead: {overhead:+.1f}% over {len(replay)} ops; "
          f"{tracer.n_spans} spans written to {spans_path.relative_to(ROOT)}")
    extra = {"simstats_mismatches": mismatches,
             "untraced_s": [r.seconds for r in ref]}
    return metrics, failed_warmup + ref + replay, extra


def parse_args(argv=None):
    import workloads as wl

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    cli = load_cli()
    args = parse_args(argv)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, work_dir)
    try:
        if args.setup_child:
            setup_child(args, runner)
            return 0
        check = make_check(args.workload, args.seed, runner)
        run = traced_run if args.trace else untraced_run
        try:
            metrics, records, extra = run(args, runner, check)
            run_error = ""
        except Exception:
            # A run-level check (bit-exact probe, setup child) failed.
            run_error = traceback.format_exc()
            print(run_error, file=sys.stderr)
            metrics, records, extra = {}, [], {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    correct = not run_error and failed == 0 and not extra.get("simstats_mismatches")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": max(1, len(records)),
        "failed": failed if records else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {
        **result,
        "provenance": provenance(args, len(records)),
        "run_error": run_error,
        **extra,
        "ops": [{"argv": list(r.op.argv), "seconds": r.seconds, "ok": r.ok,
                 "error": r.error} for r in records],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
