"""The powerstruct benchmark: one workload per run, through ``cli.main``.

    python3 perfbench/run.py --workload pow-small --seed 1 --seconds 20 --trace 0

One client in one thread sends requests in a closed loop: the next request
goes out only after the previous one returns.  Each request is
``powerstruct.cli.main(argv)`` called in-process with stdout captured.

``--trace 0`` times the workload for ``--seconds`` seconds (finishing the
block in progress), checks every output and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of blocks, each request once untraced and
once traced, and prints the per-layer metrics; their counts repeat exactly
for a given seed.  The last line of stdout is always one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

import check
import gen

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 9
# The machine's speed drifts by tens of percent over seconds (other tenants),
# and the drift moves a fixed loop of Fraction and dict arithmetic in step
# with the workload.  Timed runs interleave that loop with the requests and
# report every end-to-end time scaled to a machine on which the loop takes
# CAL_REF_S; the raw figures are printed beside them.
CAL_REF_S = 1e-3
# One loop varies by ~25% between calls (interrupts, cache), so the factor of
# a request is the median of the loops around it, one more for every
# CAL_EVERY_S of the request's latency, up to CAL_MAX: calibration then
# costs ~1% of a long request's time and one loop per short request.
CAL_EVERY_S = 0.1
CAL_MAX = 9
# Blocks per traced run: a fixed amount of work, so every count repeats.
TRACE_BLOCKS = {"pow-small": 6, "pow-large": 1, "genus2-schur": 1}


def import_cli():
    """Import powerstruct from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import powerstruct.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import powerstruct from {src}: {exc}")
    if Path(powerstruct.cli.__file__).resolve().parent != src / "powerstruct":
        raise SystemExit(f"perfbench: powerstruct was imported from outside {src}")
    return powerstruct.cli


def call(cli, argv) -> tuple:
    """One request: (exit code, stdout text, latency in seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a malformed request
            code = exc.code
        except Exception:  # a crash fails this request, not the run
            code = None
            err.write(traceback.format_exc())
        latency = perf_counter() - start
    return code, out.getvalue() if code == 0 else err.getvalue(), latency


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction and dict arithmetic.

    Garbage collection is off while it runs: a collection would cost more
    the more memory the program holds, and the loop must measure the
    machine's speed only."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        buckets: dict = {}
        for i in range(1, 120):
            x = Fraction(i, i + 7) * Fraction(3 - i, 2 * i + 1)
            acc += x
            buckets[i % 13] = buckets.get(i % 13, 0) + x
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def warm_up(cli, workload: str) -> None:
    for req in gen.warmup(workload):
        code, text, _ = call(cli, req.argv)
        if code != 0:
            raise SystemExit(f"perfbench: warm-up {req.kind} failed ({code}): {text}")


def setup_samples(args) -> tuple:
    """Seconds from starting a fresh interpreter until it is ready for its
    first timed request: start-up, ``import powerstruct`` and one warm-up
    request of each kind.  Returns the raw samples and, for each, the median
    calibration time around it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--setup-probe"]
    samples, cal = [], []
    for _ in range(SETUP_SAMPLES):
        around = [calibrate() for _ in range(3)]
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed ({code})")
        around += [calibrate() for _ in range(3)]
        samples.append(ready - start)
        cal.append(statistics.median(around))
    return samples, cal


def calibrations(latency: float) -> list:
    return [calibrate() for _ in range(1 + min(CAL_MAX - 1, int(latency / CAL_EVERY_S)))]


def timed_run(cli, blocks, seconds: float) -> tuple:
    """Closed loop over whole blocks until ``seconds`` of requests have run.
    Calibrations run before each request and after the last one, outside
    the timed time; request i lies between calibration groups i and i + 1."""
    results, cal = [], []
    start = perf_counter()
    latency = 0.0
    for block in blocks:
        for req in block:
            cal.append(calibrations(latency))
            results.append((req, *call(cli, req.argv)))
            latency = results[-1][3]
        if perf_counter() - start - math.fsum(map(math.fsum, cal)) >= seconds:
            break
    wall = perf_counter() - start - math.fsum(map(math.fsum, cal))
    cal.append(calibrations(latency))
    return results, wall, cal


def traced_run(cli, workload: str, seed: int) -> tuple:
    """Each request of a fixed number of blocks runs once untraced and once
    traced, alternating which goes first."""
    from spans import Tracer

    tracer = Tracer()
    requests = [req for block in islice(gen.stream(workload, seed), TRACE_BLOCKS[workload])
                for req in block]
    results, untraced_s, traced_s = [], 0.0, 0.0
    for index, req in enumerate(requests):
        runs = {}
        for traced in (index % 2 == 1, index % 2 == 0):
            if traced:
                tracer.request = index
                tracer.install()
            try:
                runs[traced] = call(cli, req.argv)
            finally:
                tracer.uninstall()
        code, text, latency = runs[True]
        traced_s += latency
        untraced_s += runs[False][2]
        if runs[False][:2] != (code, text):
            code, text = None, "traced and untraced outputs differ"
        results.append((req, code, text, latency))
    return tracer, results, traced_s / untraced_s - 1


def metadata(args, requests: int) -> dict:
    import powerstruct.rings

    backend = type(powerstruct.rings.Rational(1))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": requests,
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def report(meta: dict, results: list, ok: list, metrics: dict, extra_lines=()) -> None:
    print(f"# perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']}")
    print("meta " + json.dumps(meta))
    for line in extra_lines:
        print(line)
    failed = ok.count(False)
    for index, good in enumerate(ok):
        if not good:
            req, code, text, _ = results[index]
            print(f"FAILED request {index} ({req.kind}, exit {code}): {' '.join(req.argv)}")
            print("  " + text.strip().replace("\n", "\n  ")[:2000])
    summary = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_cli()
    if args.setup_probe:
        warm_up(cli, args.workload)
        print("ready", flush=True)
        return 0

    checker = check.Checker(args.seed)
    if args.trace:
        warm_up(cli, args.workload)
        tracer, results, overhead = traced_run(cli, args.workload, args.seed)
        ok = checker.check_run([r[:3] for r in results])
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = ("ratio", overhead)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        lines = [f"spans {len(tracer.spans)} from {tracer.binding_count()} bindings -> {spans_path}",
                 f"{'span':32} {'calls':>9} {'incl_s':>10} {'self_s':>10}"]
        for name, (calls, total, own) in sorted(tracer.totals().items()):
            lines.append(f"{name:32} {calls:9d} {total:10.4f} {own:10.4f}")
        lines += [f"{name:36} {value:.6g} {unit}" for name, (unit, value) in metrics.items()]
        report(metadata(args, len(results)), results, ok, metrics, lines)
        return 0

    setup, setup_cal = setup_samples(args)
    warm_up(cli, args.workload)
    results, wall, cal = timed_run(cli, gen.stream(args.workload, args.seed), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = checker.check_run([r[:3] for r in results])
    latencies = [r[3] for r in results]
    n = len(latencies)
    # speed factor of each request: > 1 on a machine slower than the reference
    speed = [statistics.median(a + b) / CAL_REF_S for a, b in zip(cal, cal[1:])]
    scaled = [t / f for t, f in zip(latencies, speed)]
    raw = {
        "throughput_rps": ok.count(True) / wall,
        "latency_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(setup),
    }
    metrics = {
        "throughput_rps": ("1/s", ok.count(True) / math.fsum(scaled)),
        "latency_p50_s": ("s", statistics.median(scaled)),
        "setup_s": ("s", statistics.median(s * CAL_REF_S / c for s, c in zip(setup, setup_cal))),
        "peak_rss_mb": ("MB", peak_rss_mb),
    }
    lines = [f"{name:16} {value:<12.6g} {unit:4} (raw {raw[name]:.6g})" if name in raw
             else f"{name:16} {value:<12.6g} {unit}" for name, (unit, value) in metrics.items()]
    if n >= 100:
        p90, p90_raw = (statistics.quantiles(x, n=10)[8] for x in (scaled, latencies))
        lines[2:2] = [f"{'latency_p90_s':16} {p90:<12.6g} s    (raw {p90_raw:.6g}; n={n})"]
    else:
        lines[2:2] = [f"{'latency_p90_s':16} n/a (n={n}, fewer than 100 requests)"]
    lines.append(f"{'failed_frac':16} {ok.count(False) / n:<12.6g} ({ok.count(False)}/{n})")
    lines.append(f"timed {wall:.3f} s over {n} requests; mean machine speed factor "
                 f"{statistics.mean(speed):.4f} (calibration loop vs {CAL_REF_S * 1e3:g} ms); "
                 "raw set-up samples " + " ".join(f"{s:.3f}" for s in setup))
    report(metadata(args, n), results, ok, metrics, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
