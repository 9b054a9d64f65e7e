#!/usr/bin/env python3
"""Host-wall benchmark of the fftmv library.

Builds perfbench (the repository's layer libraries plus one benchmark
binary) from source, runs one workload, checks its outputs and prints
every metric by name with its unit and clock.  The last line of
standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json lists.  perfbench/metrics.json
documents every metric (clock, layer, meaning, workloads) and gives
unit and better-direction for the report-only ones.

    python3 perfbench/run.py --workload map_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --all --seed 1 --seconds 20    # every workload, both runs
    python3 perfbench/run.py --quick --all                  # smoke test of the benchmark
    python3 perfbench/run.py --drift                        # measured-vs-modelled table

The traced run (--trace 1) wraps every bench-side call into a layer in
util::trace spans, exports Chrome trace JSON under .bench_build/traces
and derives each layer's share of the operation time from it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("map_solve", "hessian_batch", "serve_mixed")
# Layer parts of the traced operation, in table order.  "bench" is the
# named remainder: time inside the operation that no layer call covers.
PARTS = ("inverse", "serve", "core", "precision", "fft", "blas", "bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_registry():
    """Gated metric lists from BENCHMARK.json and the docs of every metric.

    Returns ({"end_to_end": [...], "per_layer": [...]}, {name: doc}).
    Every gated metric must be documented; a report-only metric (in
    metrics.json only) carries its own unit and better-direction.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        docs = {m["name"]: m for m in json.load(f)["metrics"]}
    gated = {kind: bench[kind] for kind in ("end_to_end", "per_layer")}
    for kind, metrics in gated.items():
        for m in metrics:
            if m["name"] not in docs:
                raise ValueError("metrics.json does not document %s metric %s"
                                 % (kind, m["name"]))
    return gated, docs


def build():
    """Configure (once) and build the perfbench binary; output to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: the fftmv sources (CMakeLists.txt, src/) are not next to "
            "perfbench/; run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def run_binary(args):
    """Run perfbench, echo its report, return the parsed RESULT record."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        raise RuntimeError("perfbench %s exited with %d" % (args[0], proc.returncode))
    return result


def self_times(events):
    """Direct-children split of each span: (span, {child cat: us}, self us)."""
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    out = []
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            while stack and e["ts"] >= stack[-1][0]["ts"] + stack[-1][0]["dur"]:
                out.append(stack.pop())
            entry = (e, {}, [e["dur"]])
            if stack:
                parent = stack[-1]
                parent[1][e["cat"]] = parent[1].get(e["cat"], 0.0) + e["dur"]
                parent[2][0] -= e["dur"]
            stack.append(entry)
        out.extend(stack)
    return [(e, children, self_us[0]) for e, children, self_us in out]


def layer_parts(result):
    """Split the traced operation's mean time into layer parts (ms).

    Closed loops: the op spans' direct children give the top-level
    parts and the op's self time the bench remainder.  serve_mixed
    supplies its top-level parts (generator lateness and serve time)
    because a request is not one span on one thread.  Then every
    recipe line moves `per_op` x (median per-repetition span time of
    its probe, by layer) from its parent layer into those layers.
    """
    with open(result["trace_path"]) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X" and e.get("pid") == 1]
    parts = {p: 0.0 for p in PARTS}
    if result["top_parts_ms"]:
        for layer, ms in result["top_parts_ms"].items():
            parts[layer] += ms
    else:
        ops = [(e, ch, s) for e, ch, s in self_times(events)
               if e["name"] == "op" and e["cat"] == "bench"]
        if not ops:
            raise RuntimeError("trace holds no operation spans")
        for _, children, self_us in ops:
            parts["bench"] += self_us / 1e3 / len(ops)
            for cat, us in children.items():
                parts[cat] += us / 1e3 / len(ops)
    per_rep = {}
    for e in events:
        args = e.get("args", {})
        if "probe" in args and args.get("rep", -1) >= 0:
            key = (args["probe"], args["rep"])
            per_rep.setdefault(key, {})
            per_rep[key][e["cat"]] = per_rep[key].get(e["cat"], 0.0) + e["dur"] / 1e3
    for line in result["recipe"]:
        reps = [v for (probe, _), v in per_rep.items() if probe == line["probe"]]
        if not reps:
            raise RuntimeError("trace holds no spans of probe " + line["probe"])
        for cat in sorted({c for r in reps for c in r}):
            ms = statistics.median(r.get(cat, 0.0) for r in reps) * line["per_op"]
            parts[cat] += ms
            parts[line["parent"]] -= ms
    return parts


def fmt(v):
    if v == 0 or not math.isfinite(v):
        return str(v)
    return "%.4g" % v


def print_metric_table(title, names, metrics, docs):
    print("\n" + title)
    print("  %-34s %14s  %-6s %-14s %s" % ("metric", "value", "unit", "clock", "layer"))
    for name in names:
        if name not in metrics:
            continue
        m = metrics[name]
        print("  %-34s %14s  %-6s %-14s %s" % (name, fmt(m["value"]), m["unit"],
                                               docs[name]["clock"], docs[name]["layer"]))


def run_workload(workload, opts, gated, docs, traced):
    args = [workload, "--seed", str(opts.seed), "--seconds", str(opts.seconds)]
    if opts.quick:
        args.append("--quick")
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        args += ["--trace", "--out", TRACE_DIR]
    result = run_binary(args)
    metrics = result["metrics"]
    kind = "per_layer" if traced else "end_to_end"
    if traced:
        parts = layer_parts(result)
        total = sum(parts.values())
        metrics["trace.op_ms"] = {"value": total, "unit": "ms"}
        for p in PARTS:
            metrics["part.%s_pct" % p] = {"value": 100.0 * parts[p] / total, "unit": "%"}
        print("\n%s per-layer split of one traced operation (%.4g ms, tracing "
              "overhead %+.2f%%):" % (workload, total,
                                      metrics["trace.overhead_pct"]["value"]))
        for p in PARTS:
            label = p + (" (remainder)" if p == "bench" else "")
            print("  %-20s %12.4g ms  %6.2f%%" % (label, parts[p], 100 * parts[p] / total))
        print("  %-20s %12.4g ms  100.00%%" % ("sum", total))
    selected = {}
    for m in gated[kind]:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            if metrics[name]["unit"] != unit:
                raise RuntimeError("%s reported %s in %s, BENCHMARK.json says %s"
                                   % (workload, name, metrics[name]["unit"], unit))
            selected[name] = {"value": metrics[name]["value"], "unit": unit}
        elif traced and workload not in docs[name]["workloads"]:
            # A count of a layer this workload never calls.
            selected[name] = {"value": 0.0, "unit": unit}
        else:
            raise RuntimeError("%s did not report %s" % (workload, name))
        v = selected[name]["value"]
        if v is None or not math.isfinite(v):
            raise RuntimeError("%s reported a non-finite %s" % (workload, name))
    gated_names = {m["name"] for ms in gated.values() for m in ms}
    report = [m["name"] for m in gated[kind]] + \
        [name for name in docs if name not in gated_names]
    print_metric_table("%s %s metrics (then report-only):" % (workload, kind.replace("_", "-")),
                       report, metrics, docs)
    print("  outputs checked: %d attempted, %d failed" % (result["attempted"],
                                                          result["failed"]))
    return {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": selected}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    ap.add_argument("--quick", action="store_true",
                    help="small shapes and short runs: a smoke test of the benchmark")
    ap.add_argument("--drift", action="store_true",
                    help="print the measured-vs-modelled drift table")
    opts = ap.parse_args()
    if not (opts.workload or opts.all or opts.drift):
        ap.error("give --workload, --all or --drift")
    if opts.quick:
        opts.seconds = min(opts.seconds, 2.0)
    if not build():
        return 1
    try:
        gated, docs = load_registry()
        if opts.drift:
            args = ["drift", "--seed", str(opts.seed)] + (["--quick"] if opts.quick else [])
            subprocess.run([BINARY] + args, check=True, timeout=3600)
            return 0
        if opts.all:
            summary = {}
            for w in WORKLOADS:
                for traced in (False, True):
                    summary["%s/%s" % (w, "trace" if traced else "e2e")] = \
                        run_workload(w, opts, gated, docs, traced)
            ok = all(r["correct"] for r in summary.values())
            print("\nall workloads: %s" % ("every output check passed" if ok else
                                             "OUTPUT CHECKS FAILED"))
            print(json.dumps(summary))
            return 0 if ok else 1
        out = run_workload(opts.workload, opts, gated, docs, opts.trace == 1)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
