#!/usr/bin/env python3
"""Benchmark of the opshape CLI: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload analyze_bent --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25       # each workload in its own process
    python3 perfbench/run.py --workload all --smoke --trace 1  # tiny sizes, one op per phase

One process, one client, closed loop: each op is one in-process call of
opshape.cli.main, which measures what users run minus interpreter start-up.
BLAS/OpenMP threads are pinned to 1. The input pool is drawn from --seed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, with every time
scaled to the reference host speed of reference.py (a fixed kernel timed
before and after each op and each timed set-up); the raw wall-clock figures
are in the detail line. --trace 1 runs
each study twice in a row, once untraced and once traced, alternating which
goes first, and prints the per-layer metrics of the traced ops and the
traced/untraced ratio of the median op time. Every op's output is checked
after the loop (see checks.py); the last stdout line is the JSON result.
Spans and results are written under .perfbench_out/ at the root of the
checkout, inputs and outputs under .perfbench_work/ (removed at exit).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# timed set-ups per untraced run, each in a fresh interpreter after the loop;
# setup_s is their median. The measuring process sets up once more before
# its loop, for the pool it measures; that set-up is reported in detail only.
SETUPS = 3
SETUP_TIMEOUT_S = 40.0
MIN_OPS = 5  # an untraced loop runs at least this many ops
GAUGES_PER_SETUP = 3  # reference kernel runs before and after each timed set-up
TRACE_MIN_OPS = 6  # three untraced/traced pairs
HARD_STOP_S = 110.0  # a loop ends here even with fewer ops, to exit within 180 s
# sanity window for analyze_bent, from the cProfile table in ROADMAP.md
SANITY_GREEDY_SHARE = 0.90
SANITY_CALLS = (8100, 9900)


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def run_op(main, argv, target):
    """One CLI call with stdout discarded: (seconds, error message or None)."""
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(_Discard()):
            rc = main(list(argv) + ["--out", str(target)])
        error = None if rc == 0 else f"exit code {rc}"
    except SystemExit as exc:
        error = f"exit {exc.code}"
    except Exception:  # an op that raises is a failed op; the loop goes on
        error = traceback.format_exc(limit=4)
    return time.perf_counter() - t, error


def out_target(command, directory, name):
    return directory / (name if command == "analyze" else name + ".json")


def _set_up(wl, workloads, main, seed, smoke, directory):
    """Draw the pool, write its CSVs and run one warm-up op on the probe.

    Returns (draw seconds, warm-up op record, studies).
    """
    t = time.perf_counter()
    drawn = workloads.generate(wl, seed, smoke)
    draw_s = time.perf_counter() - t
    studies = workloads.write(wl, drawn, directory, smoke)
    del drawn
    target = out_target(wl.command, directory, "warmup")
    dt, error = run_op(main, studies[0].argv, target)
    return draw_s, (-1, studies[0], target, dt, error, False), studies


def _cold_set_ups(args, work, count):
    """Set up `count` more times, each in a fresh interpreter, so each one
    imports and runs its warm-up op cold. Returns one dict per set-up, with
    the reference kernel timed here before it ("ref_before_s") and in the
    child after it ("ref_s")."""
    runs = []
    for r in range(count):
        ref_before_s = gauge_setup()
        directory = work / f"setup{r + 1}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(directory)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {r + 1} exited {proc.returncode}: {proc.stderr[-2000:]}")
        runs.append({**json.loads(proc.stdout.strip().splitlines()[-1]),
                     "ref_before_s": ref_before_s})
    return runs


def gauge():
    """One reference kernel time (reference.py imports numpy, so it is
    imported here, after a set-up's timing has started)."""
    import reference

    return reference.seconds()


def gauge_setup():
    """Reference kernel time next to a set-up: median of a few runs."""
    return statistics.median(gauge() for _ in range(GAUGES_PER_SETUP))


def set_up_only(args):
    """Child of _cold_set_ups: one set-up from import on; prints its times."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import opshape.cli
    import workloads

    import_s = time.perf_counter() - t0
    wl = workloads.WORKLOADS[args.workload]
    draw_s, warmup, _ = _set_up(wl, workloads, opshape.cli.main, args.seed, args.smoke,
                                Path(args.setup_only))
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "import_s": import_s, "draw_s": draw_s,
                      "ref_s": gauge_setup(), "warmup": str(warmup[2]), "error": warmup[4]}))
    return 0


def _loop(main, pool, command, outdir, seconds, min_ops, tracer=None):
    """Closed loop over the pool.

    Returns ([(op, study, target, seconds, error, traced)], wall s, reference
    kernel seconds). Untraced, the reference kernel runs before the first op
    and after each op, so op i lies between gauges i and i + 1. With a
    tracer, op 2k and op 2k+1 run study k, one untraced and one traced, the
    traced one second for even k and first for odd k, so both see the same
    inputs and the same stretch of machine time; there are no gauges.
    """
    records, gauges = [], []
    i = 0
    t0 = time.perf_counter()
    if tracer is None:
        gauges.append(gauge())
    while True:
        traced = tracer is not None and i % 2 != (i // 2) % 2
        study = pool[(i // 2 if tracer is not None else i) % len(pool)]
        target = out_target(command, outdir, f"op{i}")
        if traced:
            tracer.op = i
            tracer.install()
            dt, error = run_op(tracer.root, study.argv, target)
            tracer.uninstall()
        else:
            dt, error = run_op(main, study.argv, target)
        records.append((i, study, target, dt, error, traced))
        if tracer is None:
            gauges.append(gauge())
        i += 1
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and len(records) >= min_ops) or elapsed >= HARD_STOP_S:
            return records, elapsed, gauges


def _check_outputs(command, records, golden, checks):
    """Check every op that exited cleanly; an op fails on an error or a problem.

    Returns (failure messages, failed op count, whether every warm-up passed,
    golden byte comparisons, bytes written per loop op).
    """
    validator = checks.report_validator()
    seen = {}
    failures, identical, written = [], [], []
    failed, warm_ok = 0, True
    for op, study, target, dt, error, _ in records:
        if error is None:
            verdict = checks.check(command, target, study.expect, golden.get(study.key),
                                   validator, seen.setdefault(study.key, {}))
            if verdict.identical is not None:
                identical.append(verdict.identical)
            if op >= 0:
                written.append(verdict.bytes_written)
            if verdict.problems:
                error = "; ".join(verdict.problems[:3])
        if error is not None:
            failures.append(f"op {op} ({study.key}): {error}")
            if op >= 0:
                failed += 1
            else:
                warm_ok = False
    return failures, failed, warm_ok, identical, written


def tail_latency(ms):
    """Highest percentile with at least 10 samples beyond it, but never below
    the median: (value, percentile, samples beyond).

    A loop of fewer than 21 ops has no such percentile above the median, so
    its tail is the median.
    """
    s = sorted(ms)
    if len(s) < 21:
        return statistics.median(s), 50.0, len(s) // 2
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s), 10


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def sanity(values):
    """analyze_bent must look as the ROADMAP cProfile table did: greedy at least
    90% of an op and about 9,000 sample copies and test calls per op."""
    lo, hi = SANITY_CALLS
    share = values["diagnostics.greedy_share"]
    copies = values["geometry.sample_copies"]
    calls = values["directional.test_calls"]
    found = {
        "greedy_share": (share, share >= SANITY_GREEDY_SHARE),
        "sample_copies": (copies, lo <= copies <= hi),
        "test_calls": (calls, lo <= calls <= hi),
    }
    return {"pass": all(ok for _, ok in found.values()),
            **{k: {"value": v, "ok": ok} for k, (v, ok) in found.items()}}


def run_workload(args):
    if not (SRC / "opshape" / "__init__.py").is_file():
        print(f"error: no opshape package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import checks
    import tracer as tracing

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import opshape.cli
    import workloads  # numpy, opshape.synth, opshape.io, opshape.rng
    import_s = time.perf_counter() - t0
    import opshape

    if Path(opshape.__file__).resolve().parent != (SRC / "opshape").resolve():
        print(f"error: imported opshape from {opshape.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    main = opshape.cli.main
    work = WORK / f"{wl.name}-{args.seed}-t{args.trace}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        draw_s, warmup, studies = _set_up(wl, workloads, main, args.seed, args.smoke,
                                          work / "setup0")
        setup_runs = [{"setup_s": time.perf_counter() - t0, "import_s": import_s,
                       "draw_s": draw_s, "error": warmup[4]}]
        warmups = [warmup]
        pool = studies[1:]

        outdir = work / "out"
        outdir.mkdir()
        if args.smoke:
            seconds, min_ops = 0.0, (2 if args.trace else 1)
        else:
            seconds, min_ops = float(args.seconds), (TRACE_MIN_OPS if args.trace else MIN_OPS)
        tracer = tracing.Tracer(main) if args.trace else None
        records, wall, gauges = _loop(main, pool, wl.command, outdir, seconds, min_ops, tracer)
        # the process's own peak, before the checker loads jsonschema and the golden
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        timed = setup_runs
        if not args.trace:
            timed = _cold_set_ups(args, work, SETUPS)
            setup_runs += timed
            for r, run in enumerate(timed):
                warmups.append((-2 - r, studies[0], Path(run["warmup"]), None, run["error"], False))
        setup_s = statistics.median(run["setup_s"] for run in timed)
        import reference

        # times at the reference host speed: each scaled by NOMINAL_S over the
        # mean of the kernel times measured before and after it
        if not args.trace:
            setup_ref_s = statistics.median(
                run["setup_s"] * 2 * reference.NOMINAL_S / (run["ref_before_s"] + run["ref_s"])
                for run in timed)

        # golden.json pins the probe for every seed and the pool for the default seed
        golden = {}
        if not args.smoke:
            golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[wl.name]
            if args.seed != workloads.DEFAULT_SEED:
                golden = {"probe": golden["probe"]}
        failures, failed, warm_ok, identical, written = _check_outputs(
            wl.command, warmups + records, golden, checks)
        checker_ok = True
        if args.smoke:
            last = records[-1]
            problems = checks.self_test(wl.command, last[2], last[1].expect,
                                        checks.report_validator())
            failures += problems
            checker_ok = not problems

        attempted = len(records)
        ms = [r[3] * 1e3 for r in records]
        if gauges:
            ref_ms = [r[3] * 1e3 * 2 * reference.NOMINAL_S / (gauges[j] + gauges[j + 1])
                      for j, r in enumerate(records)]
        else:
            ref_ms = ms
        tail, pct, beyond = tail_latency(ref_ms)
        detail = {
            "workload": wl.name,
            "seed": args.seed,
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "latency_samples": attempted,
            "latency_tail_percentile": round(pct, 3),
            "latency_tail_samples_beyond": beyond,
            "loop_wall_s": wall,
            "pool_size": len(pool),
            "reference_nominal_ms": reference.NOMINAL_S * 1e3,
            "reference_ms_quartiles": (statistics.quantiles([g * 1e3 for g in gauges], n=4)
                                       if len(gauges) > 1 else None),
            "wall_latency_p50_ms": statistics.median(ms),
            "wall_latency_tail_ms": tail_latency(ms)[0],
            "wall_ops_per_s": (attempted - failed) / wall,
            "wall_setup_s": setup_s,
            "setup_runs_s": [run["setup_s"] for run in setup_runs],
            "setup_reference_ms": [(run["ref_before_s"] * 1e3, run["ref_s"] * 1e3)
                                   for run in setup_runs[1:]],
            "setup_import_s": [run["import_s"] for run in setup_runs],
            "setup_draw_s": [run["draw_s"] for run in setup_runs],
            "failures": failures[:5],
        }
        if args.trace:
            plain_ms = [r[3] * 1e3 for r in records if not r[5]]
            traced_ms = [r[3] * 1e3 for r in records if r[5]]
            values = tracing.layer_metrics(tracer, len(traced_ms), sum(traced_ms))
            values["pipeline.bytes_written"] = statistics.fmean(written) if written else 0.0
            values["pipeline.report_identical_ratio"] = (
                sum(identical) / len(identical) if identical else 0.0)
            values["synth.setup_share"] = draw_s / setup_s
            values["trace.overhead_ratio"] = (
                statistics.median(traced_ms) / statistics.median(plain_ms))
            declared = spec["per_layer"]
            tracer.write(OUT / f"{wl.name}-spans.jsonl")
            if wl.name == "analyze_bent" and not args.smoke:
                detail["sanity"] = sanity(values)
        else:
            values = {
                "setup_s": setup_ref_s,
                "latency_p50_ms": statistics.median(ref_ms),
                "latency_tail_ms": tail,
                "ops_per_s": (attempted - failed) / (sum(ref_ms) / 1e3),
                "ok_ratio": (attempted - failed) / attempted,
                "peak_rss_mb": peak_rss_mb,
            }
            declared = spec["end_to_end"]
        if sorted(m["name"] for m in declared) != sorted(values):
            raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
        result = {
            "correct": failed == 0 and warm_ok and checker_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }
        env = environment(args)
        (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"env": env, "detail": detail, "result": result}, indent=1) + "\n",
            encoding="utf-8")
        print("env " + json.dumps(env))
        print("detail " + json.dumps(detail))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args):
    """Every workload in its own process, those of BENCHMARK.json and the
    ungated ones; prints one table and checks the metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    gated = {w["name"] for w in spec["workloads"]}
    sys.path.insert(0, str(SRC))
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        for line in lines[:-1]:
            if line.startswith("detail "):
                print(f"{name} {line}")
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != units:
            print(f"{name}: metrics/units {got} differ from BENCHMARK.json {units}")
            status = 1
        if not result["correct"] or result["failed"]:
            status = 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}" + ("" if name in gated else " (not in BENCHMARK.json)"))
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="workload name (workloads.WORKLOADS), or all")
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (default 1, workloads.DEFAULT_SEED, the seed golden.json pins)")
    p.add_argument("--seconds", type=float, default=25.0, help="measured loop time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one op per phase, and a check that corrupted outputs are rejected")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_only:
        return set_up_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
