#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The script builds perfbench/bench.exe
and bin/acc.exe from source with dune (into _build/), runs the workload,
checks its outputs, appends one row to .perfbench/ledger.jsonl and prints
the result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics: every second operation of
the run is traced, so the two halves also give the tracing overhead.  A
traced run writes its spans to .perfbench/traces/
(validated with `acc trace --validate`) and a per-layer table to
.perfbench/layers/.  The exit code is 0 only for a correct run.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

OUT = ".perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160
DEFAULT_SEED = 1
BENCH_EXE = "_build/default/perfbench/bench.exe"
ACC_EXE = "_build/default/bin/acc.exe"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.exists("dune-project"):
        fail("no dune-project here: run from the root of the source tree")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/acc.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("bin", "lib", "perfbench", "dune", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".py", ".json")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()


def pin():
    """Keep serve_mix, its server and its calibration kernel on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_bench(args, spans):
    work = os.path.join(OUT, "work-" + args.workload)
    os.makedirs(work, exist_ok=True)
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--acc", ACC_EXE, "--work", work]
    if args.trace:
        cmd += ["--trace", "--spans", spans]
    # Its own session, so a timeout also stops the acc serve it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=pin if args.workload == "serve_mix" else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def validate_spans(path):
    proc = subprocess.run([ACC_EXE, "trace", "--validate", path], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=120)
    print(proc.stdout.strip(), file=sys.stderr)
    return proc.returncode == 0


# Layer times measured inside Driver.run, shown as a share of it.
INSIDE_RUN = ("l1.convert_s", "l2.convert_s", "analysis.summary_s", "analysis.discharge_s",
              "hl.convert_s", "wa.convert_s", "store.load_s", "store.replay_s",
              "driver.unattributed_s")


def layer_table(res, bench):
    """Per-layer rows, with each layer's share of Driver.run."""
    layers = res["per_layer"]
    run_s = layers.get("driver.run_s", {}).get("value", 0)
    rows = [f"per-layer metrics: {res['workload']} seed {res['seed']}",
            f"{'metric':32} {'value':>14} {'unit':8} {'share of driver.run':>20}"]
    for m in bench["per_layer"]:
        v = layers[m["name"]]["value"]
        share = f"{100 * v / run_s:19.1f}%" if m["name"] in INSIDE_RUN and run_s > 0 else ""
        rows.append(f"{m['name']:32} {v:14.6g} {m['unit']:8} {share:>20}")
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists("BENCHMARK.json"):
        fail("run from the root of the source tree")
    bench = load_json("BENCHMARK.json")
    known = [w["name"] for w in bench["workloads"]]
    if args.workload not in known:
        fail(f"unknown workload {args.workload} (known: {', '.join(known)})")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    build()
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "layers"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{int(time.time())}"
    spans = os.path.join(OUT, "traces", tag + ".json")

    res = run_bench(args, spans)
    section = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in bench[section] if m["name"] not in res[section]]
    if missing:
        fail(f"{args.workload} did not report {', '.join(missing)}")
    spans_ok = True
    if args.trace:
        spans_ok = validate_spans(spans)
        table = layer_table(res, bench)
        with open(os.path.join(OUT, "layers", tag + ".txt"), "w") as f:
            f.write(table + "\n")
        print(table, file=sys.stderr)

    correct = res["failed"] == 0 and spans_ok
    res["named"]["error_rate"] = {"value": res["failed"] / max(1, res["attempted"]),
                                  "unit": "ratio"}
    for name, m in sorted(res["named"].items()):
        print(f"{res['workload']}: {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for e in res["errors"]:
        print(f"{res['workload']}: error: {e}", file=sys.stderr)

    row = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "commit": source_id(), "nproc": os.cpu_count(), "host": platform.node(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "traced": bool(args.trace), "correct": correct,
           "attempted": res["attempted"], "failed": res["failed"],
           "end_to_end": res["end_to_end"], "named": res["named"],
           "per_layer": res["per_layer"], "samples": res["samples"]}
    with open(os.path.join(OUT, "ledger.jsonl"), "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")

    metrics = {m["name"]: res[section][m["name"]] for m in bench[section]}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
