"""Self-test of the benchmark.

    python3 perfbench/selftest.py

* every workload runs at minimal length (one rep), untraced and traced;
* every op outside the probes passes its checks;
* the metric names and units printed are exactly those in BENCHMARK.json;
* counts and sizes are identical across two traced runs with the same seed;
* the traced runs confirm the workload design: on `kan` the `bar` layer has
  the largest self time and the Z routines take under 5% of the traced
  rep; on `group_homology` the Z routines outweigh every layer's self time
  and `bar` is never entered; on `hocolim` field ranks, BV validation and
  bar tensor quotients all show up;
* without the engine sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(*SPEC["command"][1:])), "--workload",
           workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([*cmd], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
            print("FAILED:", what)

    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w in (w["name"] for w in SPEC["workloads"]):
        print(f"== {w}", flush=True)
        plain = result_of(run(w, 0))
        expect(plain["correct"] and plain["failed"] == 0,
               f"{w}: untraced run has failed ops")
        expect({k: v["unit"] for k, v in plain["metrics"].items()} == e2e,
               f"{w}: end-to-end metrics differ from BENCHMARK.json")
        first = result_of(run(w, 1))
        second = result_of(run(w, 1))
        for res in (first, second):
            expect(res["correct"], f"{w}: traced run has failed ops")
            expect({k: v["unit"] for k, v in res["metrics"].items()} == layer,
                   f"{w}: per-layer metrics differ from BENCHMARK.json")
        for name, unit in layer.items():
            if unit == "s" or name == "trace.overhead_ratio":
                continue
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            expect(a == b, f"{w}: {name} differs across traced runs ({a} vs {b})")
        m = {k: v["value"] for k, v in first["metrics"].items()}
        report = json.loads((HERE / "out" / f"{w}-seed0-trace1.json").read_text())
        traced_wall = report["traced_rep_seconds"][0]
        selfs = {k: v for k, v in m.items() if k.endswith(".self_s")}
        if w == "kan":
            expect(max(selfs, key=selfs.get) == "bar.self_s",
                   f"kan: largest self time is {max(selfs, key=selfs.get)}")
            expect(m["linalg.z.s"] < 0.05 * traced_wall,
                   f"kan: linalg.z.s {m['linalg.z.s']} is 5% or more of "
                   f"the traced rep {traced_wall}")
        elif w == "group_homology":
            expect(all(m["linalg.z.s"] > v for k, v in selfs.items()
                       if k != "linalg.self_s"),
                   "group_homology: linalg.z.s is not the largest share")
            expect(all(v == 0 for k, v in m.items() if k.startswith("bar.")),
                   "group_homology: bar was entered")
        elif w == "hocolim":
            for name in ("linalg.field_rank.s", "multicat.validate.s",
                         "barcat.tensor_quotient.s"):
                expect(m[name] > 0, f"hocolim: {name} is zero")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run("kan", 0, cwd=bare)
    expect(proc.returncode != 0, "bare directory: exit code 0")
    expect('"metrics"' not in proc.stdout, "bare directory: printed a result")
    shutil.rmtree(bare)

    print("selftest:", "ok" if not problems else f"{len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
