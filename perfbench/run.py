"""Benchmark of the fracimpulse package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (dense-picard, config-cli or marching-shared) in this
process for about S seconds of closed-loop calls, checks every output,
and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer split from a traced run.
The line before it is a record of the run (environment, sample counts
and the metrics that are reported but not gated).  Exit codes: 0 when
every check passed, 1 when an output check failed, 2 when the package
cannot be imported or the workload cannot start.
"""

from __future__ import annotations

import ctypes
import os
import sys
import time

STARTED = time.perf_counter()
# one process, at most two threads: OpenBLAS and OpenMP stay single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def fix_mmap_threshold(nbytes: int = 128 * 1024) -> int | None:
    """Pin glibc's mmap threshold.  By default glibc raises it after a
    large block is freed, so later arrays of a few MiB land on the heap
    or not depending on allocation order, and peak RSS moved by 7% from
    seed to seed.  Pinned, every array above `nbytes` is mapped and
    returned on free."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    M_MMAP_THRESHOLD = -3
    return nbytes if libc.mallopt(M_MMAP_THRESHOLD, nbytes) == 1 else None


MMAP_THRESHOLD = fix_mmap_threshold()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a nonnegative integer")
    return args


def main(argv=None) -> int:
    try:
        import harness
    except ImportError as e:
        print(f"perfbench: cannot import fracimpulse from src/: {e}", file=sys.stderr)
        return 2
    args = parse_args(argv, harness.WORKLOADS)

    workdir = harness.OUT_DIR / args.workload / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(harness, args, workdir)
    except (harness.CheckFailed, RuntimeError) as e:  # set-up, warm-up or memory guard
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(harness, args, workdir: Path) -> int:
    if args.setup_only:
        harness.prepare_workload(args.workload, args.seed, workdir)
        return 0

    env = harness.environment(args.seed)
    if env["blas"]["threads"] is not None and env["blas"]["threads"] > env["nproc"]:
        raise RuntimeError(f"OpenBLAS runs {env['blas']['threads']} threads on {env['nproc']} cores")
    setup_samples = [] if args.trace else harness.measure_setup(args.workload, args.seed, Path(__file__))
    workload = harness.prepare_workload(args.workload, args.seed, workdir)
    main_setup_s = time.perf_counter() - STARTED

    ctx = harness.TraceContext() if args.trace else None
    outcomes = harness.run_rounds(workload, args.seed, args.seconds, ctx)
    calls = list({id(o.call): o.call for o in outcomes}.values())
    for index, message in workload.finish(calls).items():
        for o in outcomes:
            if o.call is calls[index] and o.error is None:
                o.error = message
    failures = [o.error for o in outcomes if o.error is not None]

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "threads": harness.thread_count(),
        "malloc_mmap_threshold": MMAP_THRESHOLD,
        "main_setup_s": main_setup_s,
        "failed_frac": len(failures) / len(outcomes),
        "failures": failures[:5],
    }
    record.update(harness.end_to_end([o for o in outcomes if not o.traced]))
    correct = not failures
    if args.trace:
        metrics, add_up_error = harness.per_layer(ctx, outcomes)
        if add_up_error is not None:
            correct = False
            record["failures"].append(add_up_error)
        spans = harness.OUT_DIR / args.workload / "spans.npz"
        ctx.tracer.save(spans)
        record["spans_file"] = str(spans.relative_to(harness.ROOT))
        units = harness.PER_LAYER_UNITS
    else:
        metrics = {
            "solve_s_p50": record["solve_s_p50"],
            "check_s_p50": record["check_s_p50"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        record["setup_s_samples"] = setup_samples
        record["peak_rss_mb"] = metrics["peak_rss_mb"]
        units = harness.E2E_UNITS
    record["metrics"] = metrics
    (harness.OUT_DIR / args.workload / f"record-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for message in failures[:5]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    print("record " + json.dumps(record))
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
