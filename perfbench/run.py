"""Benchmark of the `opbar` engine: three workloads, checked outputs, and a
traced run that reports per-layer numbers.

    python3 perfbench/run.py --workload kan --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30
    python3 perfbench/run.py --workload hocolim --record

Workloads (see workloads.py): `kan`, `group_homology`, `hocolim`.

Load model: a closed loop with one client.  The op list of a workload runs
back to back in one single-threaded process, rep after rep, until the next
rep would end after `--seconds`; at least one rep runs.  Every rep draws the
same inputs from `random.Random("<workload>:<seed>")` and builds fresh
fixtures, so no rep sees caches a previous rep filled.  The script relaunches
itself once with PYTHONHASHSEED=0, so every workload runs in its own fresh
process with a fixed iteration order for hashed containers.

`--trace 0` prints the end-to-end metrics:
  wall_s       time of the op list (engine checks on): the sum over its ops
               of each op's median over the run's reps, each rep's time
               scaled to the reference host speed (hostspeed.py).  Every rep
               runs the same inputs on fresh fixtures
  setup_s      median of the run's set-ups (import opbar, build and validate
               the fixtures), each scaled likewise: three before the first
               rep and one before every rep, so that they sample the whole run
  peak_rss_mb  maximum resident memory of the workload's process
The times as measured, unscaled, are printed on the `report` line
(`measured_wall_s`, `measured_setup_s`) and kept per op under perfbench/out/.
`--trace 1` alternates an untraced and a traced rep on the same inputs and
prints the per-layer metrics (tracer.py): times are medians over the traced
reps, counts and sizes are those of rep 0 and repeat exactly per seed.

Every op is checked against its oracle and/or its digest recorded in
digests.json (seeded ops: at the default seed only).  A failing op
does not stop the run; it is counted in `failed` and makes `correct` false.
Probes of known engine defects run in the timed op list but are tallied on
their own line (`report`), where `error_rate` counts them as failed ops.

The last line of stdout is the JSON result.  Per-op sizes and, for traced
runs, the spans of rep 0 are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, SetupError, digest_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
ENGINE = ("coeff", "linalg", "lincomb", "complexes", "symgrp", "simplicial",
          "dgcat", "multicat", "barcat", "bar", "fixtures")
SETUP_FIRST = 3
CHILD_TIMEOUT = 170
clock = time.perf_counter


class Engine:
    """The engine's modules, imported from this checkout's src/."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "opbar" or m.startswith("opbar.")]:
            del sys.modules[name]
        pkg = importlib.import_module("opbar")
        if Path(pkg.__file__).resolve().parent != SRC / "opbar":
            raise ImportError(f"opbar imported from {pkg.__file__}, not src/")
        for name in ENGINE:
            setattr(self, name, importlib.import_module(f"opbar.{name}"))


def time_setup(workload, n):
    """Times n set-ups from a fresh import; returns the last engine and the
    (measured, scaled) time of each set-up."""
    times = []
    for _ in range(n):
        before = hostspeed.probe()
        t0 = clock()
        ob = Engine()
        fx = workload.fixtures(ob)
        workload.validate(ob, fx)
        t = clock() - t0
        times.append((t, hostspeed.scaled(t, before, hostspeed.probe())))
    return ob, times


def verify(workload, op, value, seed, recorded, record):
    """None when the op's output is correct, else the reason; also returns
    the output digest (or None)."""
    if op.check is not None:
        reason = op.check(value)
        if reason:
            return reason, None
    if op.digest is None:
        return (None if op.check is not None else "no oracle"), None
    digest = digest_of(op.digest(value))
    if op.seeded and seed != DEFAULT_SEED:
        return None, digest
    key = f"{workload.name}/{op.name}"
    if record is not None:
        record[key] = digest
        return None, digest
    want = recorded.get(key)
    if want is None:
        return (None if op.check is not None
                else "no oracle and no recorded digest"), digest
    if want != digest:
        return f"digest {digest} differs from recorded {want}", digest
    return None, digest


def z_summary(zcalls):
    """Rows x cols, nnz and pivots of the Z-routine calls of one op."""
    if not zcalls:
        return None
    shapes = {}
    for routine, rows, cols, nnz, piv in zcalls:
        key = f"{routine} {rows}x{cols}"
        calls, total_nnz, total_piv = shapes.get(key, (0, 0, 0))
        shapes[key] = (calls + 1, total_nnz + nnz, total_piv + piv)
    return {"calls": len(zcalls),
            "max_cells": max(r * c for _, r, c, _, _ in zcalls),
            "nnz_in": sum(z[3] for z in zcalls),
            "pivots": sum(z[4] for z in zcalls),
            "by_shape": {k: {"calls": c, "nnz_in": n, "pivots": p}
                         for k, (c, n, p) in sorted(shapes.items())}}


def run_rep(workload, ob, seed, recorded, recorder=None, record=None):
    """One pass of the op list; returns (op time, outcomes).

    The recorder (a Tracer) is installed around each op's engine call only,
    so input preparation and output checks are neither timed nor traced."""
    rng = random.Random(f"{workload.name}:{seed}")
    fx = workload.fixtures(ob)
    ops = workload.ops(ob, fx, rng)
    gc.collect()
    total = 0.0
    outcomes = []
    for op in ops:
        out = {"op": op.name, "probe": op.probe}
        outcomes.append(out)
        try:
            args = op.prepare()
        except Exception as exc:  # a failing op is counted; the run goes on
            out["error"] = f"prepare raised {type(exc).__name__}: {exc}"
            continue
        run = op.run
        gc.collect()  # start every op from the same heap state
        before = hostspeed.probe()
        if recorder is not None:
            z0 = len(recorder.zcalls)
            if recorder.with_spans:
                run = recorder.wrap(f"op.{op.name}", run)
            recorder.install()
        t0 = clock()
        try:
            value = run(args)
        except Exception as exc:  # a failing op is counted; the run goes on
            out["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            out["seconds"] = clock() - t0
            if recorder is not None:
                recorder.uninstall()
        out["scaled"] = hostspeed.scaled(out["seconds"], before,
                                         hostspeed.probe())
        total += out["seconds"]
        if recorder is not None:
            z = z_summary(recorder.zcalls[z0:])
            if z:
                out["z"] = z
        if "error" in out:
            continue
        try:
            reason, digest = verify(workload, op, value, seed, recorded,
                                    record)
            if digest:
                out["digest"] = digest
            if reason:
                out["error"] = f"wrong output: {reason}"
            if op.sizes is not None:
                out["sizes"] = op.sizes(value)
        except Exception as exc:  # a check that raises is a failure
            out["error"] = f"check raised {type(exc).__name__}: {exc}"
    return total, outcomes


def op_seconds(outcomes, traced, key="seconds"):
    """Each op's untraced times (measured, or "scaled"), rep by rep."""
    out = {}
    for o in outcomes:
        out.setdefault(o["op"], []).append(o.get(key, 0.0))
    if traced:  # untraced and traced reps alternate
        out = {k: v[0::2] for k, v in out.items()}
    return out


def tally(outcomes):
    ops = [o for o in outcomes if not o["probe"]]
    probes = [o for o in outcomes if o["probe"]]
    return {"attempted": len(ops), "failed": sum("error" in o for o in ops),
            "probes_attempted": len(probes),
            "probes_failed": sum("error" in o for o in probes)}


def show(outcomes):
    for o in outcomes:
        status = "FAIL " + o["error"] if "error" in o else "ok"
        if o["probe"]:
            status = "probe " + status
        secs = o.get("seconds", 0.0)
        brief = dict(o.get("sizes", {}))
        if "z" in o:
            brief["z"] = {k: o["z"][k]
                          for k in ("calls", "max_cells", "nnz_in", "pivots")}
        print(f"op {o['op']:<24} {secs:9.4f} s  {status}  {json.dumps(brief)}")


def write_out(name, payload):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)


def run_workload(args):
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    try:
        ob, setup_times = time_setup(workload, SETUP_FIRST)
    except (ImportError, SetupError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    record = {} if args.record else None
    seconds = args.seconds
    reps, traced_reps, outcomes, rep0 = [], [], [], None
    metrics = {}
    t_start = clock()
    if args.trace:
        traced, first = [], None
        while True:
            t_pass = clock()
            t_u, outs_u = run_rep(workload, ob, args.seed, recorded)
            tracer = Tracer()
            t_t, outs_t = run_rep(workload, ob, args.seed, recorded,
                                  recorder=tracer)
            reps.append(t_u)
            traced_reps.append(t_t)
            traced.append(tracer.metrics(t_t, t_u))
            outcomes += outs_u + outs_t
            if first is None:
                first, rep0 = tracer, outs_t
            if clock() - t_start + (clock() - t_pass) > seconds:
                break
        for name, value in traced[0].items():
            timed = name.endswith(".s") or name.endswith("self_s") \
                or name == "trace.overhead_ratio"
            metrics[name] = statistics.median(m[name] for m in traced) \
                if timed else value
        _write_spans(workload.name, args.seed, first)
    else:
        sizer = Tracer(spans=False)
        while True:
            t_pass = clock()
            ob, t_setup = time_setup(workload, 1)
            setup_times += t_setup
            t_op, outs = run_rep(workload, ob, args.seed, recorded,
                                 recorder=sizer, record=record)
            reps.append(t_op)
            outcomes += outs
            rep0 = rep0 or outs
            if record is not None or clock() - t_start + (clock() - t_pass) > seconds:
                break
        metrics = {
            "wall_s": sum(statistics.median(ts) for ts in
                          op_seconds(outcomes, 0, "scaled").values()),
            "setup_s": statistics.median(s for _, s in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if record is not None:
        recorded.update(record)
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(record)} digests for {workload.name} "
              f"at seed {DEFAULT_SEED}")
    counts = tally(outcomes)
    all_ops = counts["attempted"] + counts["probes_attempted"]
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "reps": len(reps), "rep_seconds": reps, "setup_seconds": setup_times,
        "traced_rep_seconds": traced_reps,
        "measured_wall_s": sum(statistics.median(ts) for ts in
                               op_seconds(outcomes, args.trace).values()),
        "measured_setup_s": statistics.median(t for t, _ in setup_times),
        "op_seconds": op_seconds(outcomes, args.trace),
        "op_scaled_seconds": op_seconds(outcomes, args.trace, "scaled"),
        "error_rate": (counts["failed"] + counts["probes_failed"]) / all_ops,
        **counts,
        "probe_errors": sorted({o["op"] + ": " + o["error"] for o in outcomes
                                if o["probe"] and "error" in o}),
        "metrics": metrics, "rep0_ops": rep0,
    }
    write_out(f"{workload.name}-seed{args.seed}-trace{args.trace}.json", report)
    show(rep0)
    print("report " + json.dumps({k: report[k] for k in (
        "workload", "reps", "measured_wall_s", "measured_setup_s",
        "error_rate", "attempted", "failed", "probes_attempted",
        "probes_failed", "probe_errors")}))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


def _write_spans(workload, seed, tracer):
    """Rep 0's spans as gzipped TSV: name, start, end, parent row index."""
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"{workload}-seed{seed}-spans.tsv.gz", "wt",
                   compresslevel=1) as fh:
        fh.write("name\tstart\tend\tparent\n")
        fh.writelines(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n"
                      for name, start, end, parent in tracer.span_rows())


def unit_of(name):
    if name in ("wall_s", "setup_s") or name.endswith(".s") \
            or name.endswith("self_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args):
    """Every workload in its own process; one table of end-to-end metrics."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT + 10)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
        rows.append((name, result["metrics"], report))
    print()
    if not args.trace:
        print(f"{'workload':<16}{'wall_s (s)':>12}{'setup_s (s)':>13}"
              f"{'peak_rss_mb (MB)':>18}{'error_rate':>12}  failed probes")
        for name, m, report in rows:
            print(f"{name:<16}{m['wall_s']['value']:>12.4f}"
                  f"{m['setup_s']['value']:>13.4f}"
                  f"{m['peak_rss_mb']['value']:>18.1f}"
                  f"{report['error_rate']:>12.4f}  "
                  + "; ".join(report["probe_errors"]))
    print(json.dumps(total))
    return 0


def relaunch():
    """Run this script again in a fresh process with a fixed hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {CHILD_TIMEOUT} s", file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's digests at the default seed")
    args = parser.parse_args()
    if not (SRC / "opbar" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {SRC}", file=sys.stderr)
        return 2
    if args.record and (args.seed != DEFAULT_SEED or args.trace
                        or args.workload == "all"):
        parser.error("--record takes one workload at the default seed, untraced")
    if args.workload == "all":
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        return relaunch()
    try:
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
