#!/usr/bin/env python3
"""The repository benchmark: builds cdsflow and the `cdsbench` program from
source, runs one workload and prints its result.

Run from the repository root:

    python3 perfbench/run.py --workload eod-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # all workloads in seconds
    python3 perfbench/run.py --compare A B      # two result sets

A run prints cdsbench's figures, then as its last line one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the `end_to_end` metrics of BENCHMARK.json, with
`--trace 1` its `per_layer` metrics (the per-layer ledger of a traced run).
Every run also writes its full record -- all figures, the ledger, the host
fingerprint and the seed -- to `.bench_build/results/`, and a traced run its
spans next to it. The build and all outputs stay under `.bench_build/`.

The exit code is 0 only for a correct run; a failed correctness gate still
prints its result, with `"correct": false`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RESULTS = BUILD / "results"
RUN_TIMEOUT_S = 170
FINGERPRINT_KEYS = ("cpu_model", "nproc", "simd_level", "compiler",
                    "compiler_version", "build_type", "assertions")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds cdsbench; returns the binary paths."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        die(f"no cdsflow sources under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                  "--target", "cdsbench", "cdsflow_cli"])
    with open(log, "a") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT).returncode
            if rc != 0:
                tail = log.read_text().splitlines()[-20:]
                die("build failed:\n" + "\n".join(tail))
    return CMAKE_DIR / "cdsbench", CMAKE_DIR / "cdsflow" / "cdsflow_cli"


def fingerprint(cli, simd_level, seed):
    """Host and build identity every result carries."""
    info = {}
    out = subprocess.run([str(cli), "build-info"], capture_output=True,
                         text=True, timeout=30).stdout
    for line in out.splitlines():
        key, _, value = line.partition("=")
        info[key.strip()] = value.strip()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build_type = "unknown"
    cache = CMAKE_DIR / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "simd_level": simd_level,
        "compiler": info.get("compiler", "unknown"),
        "compiler_version": info.get("compiler_version", "unknown"),
        "build_type": build_type,
        "assertions": info.get("assertions", "unknown"),
        "seed": seed,
    }


def run_cdsbench(binary, workload, seed, seconds, trace, smoke=False,
               spans=None, echo=True):
    """Runs cdsbench; returns its parsed JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: cdsbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        die(f"{workload}: cdsbench exited {proc.returncode} without a result")
    if echo:
        for line in lines[:-1]:
            print(line)
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def layer_metrics(record):
    """The per-layer metrics of a traced run: cdsbench's per-layer
    figures, the ledger's shares of wall time, its wall and the tracing
    overhead."""
    ledger = record["ledger"]
    wall = ledger["wall_s"]
    metrics = dict(record["detail"])
    metrics["ledger.wall_s"] = {"value": wall, "unit": "s"}
    for layer, seconds in ledger["self_s"].items():
        metrics[f"ledger.{layer}_frac"] = {
            "value": seconds / wall if wall > 0 else 0.0, "unit": "frac"}
    metrics["trace.overhead_frac"] = {
        "value": record["trace_overhead_frac"], "unit": "frac"}
    metrics["trace.spans"] = {"value": record["spans"], "unit": "count"}
    return metrics


def contract_metrics(spec, record, trace):
    """Selects and checks the metrics BENCHMARK.json names for this run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        have = layer_metrics(record)
    else:
        have = dict(record["e2e"])
        attempted = max(1, record["attempted"])
        have["ok_frac"] = {"value": 1.0 - record["failed"] / attempted,
                           "unit": "frac"}
    out = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None and trace:
            # A layer this workload does not drive did no work.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            die(f"{record['workload']}: metric {m['name']} not measured")
        if got["unit"] != m["unit"]:
            die(f"{record['workload']}: metric {m['name']} in {got['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def ledger_sums_to_wall(record):
    ledger = record["ledger"]
    total = sum(ledger["self_s"].values())
    return abs(total - ledger["wall_s"]) <= 1e-6 * max(1.0, ledger["wall_s"])


def run_one(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    binary, cli = build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = RESULTS / f"{stem}.spans.jsonl" if args.trace else None
    record = run_cdsbench(binary, args.workload, args.seed, args.seconds,
                        args.trace, spans=spans)
    if args.trace and not ledger_sums_to_wall(record):
        die(f"{args.workload}: ledger rows do not sum to wall")
    metrics = contract_metrics(spec, record, args.trace)
    record["fingerprint"] = fingerprint(cli, record["simd_level"], args.seed)
    record["metrics"] = metrics
    record["time"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    result = {"correct": bool(record["correct"]),
              "attempted": int(record["attempted"]),
              "failed": int(record["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def smoke():
    """Runs every workload at a tiny size, untraced and traced, and checks
    that every BENCHMARK.json metric is printed with its unit and that each
    traced ledger sums to wall."""
    spec = load_spec()
    binary, _ = build()
    ok = True
    produced = set()
    for w in spec["workloads"]:
        for trace in (0, 1):
            record = run_cdsbench(binary, w["name"], 1, 1.0, trace, smoke=True,
                                echo=False)
            metrics = contract_metrics(spec, record, trace)
            if trace:
                produced.update(layer_metrics(record))
            problems = []
            if not record["correct"]:
                problems.append("correctness gate failed: " +
                                "; ".join(record["notes"]))
            if trace and not ledger_sums_to_wall(record):
                problems.append("ledger rows do not sum to wall")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {w['name']} trace={trace}: {len(metrics)} metrics "
                  f"{status}")
            ok = ok and not problems
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    if never:
        print("smoke: per-layer metrics no workload measures: " +
              ", ".join(never))
        ok = False
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def load_set(path):
    """Result records (untraced) under a file or directory."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = []
    for f in files:
        rec = json.loads(f.read_text())
        if "fingerprint" in rec and not rec.get("traced"):
            records.append(rec)
    if not records:
        die(f"no untraced result records under {path}")
    return records


def compare(a_path, b_path):
    """Compares two result sets per workload and end-to-end metric against
    the BENCHMARK.json bounds. Refuses sets from different hosts or builds."""
    spec = load_spec()
    a, b = load_set(a_path), load_set(b_path)
    prints = set()
    for rec in a + b:
        fp = rec["fingerprint"]
        prints.add(tuple((k, str(fp.get(k))) for k in FINGERPRINT_KEYS))
    if len(prints) != 1:
        print("refusing to compare: host/build fingerprints differ:",
              file=sys.stderr)
        for fp in sorted(prints):
            print("  " + ", ".join(f"{k}={v}" for k, v in fp), file=sys.stderr)
        return 2
    worse = False
    for w in spec["workloads"]:
        ra = [r for r in a if r["workload"] == w["name"]]
        rb = [r for r in b if r["workload"] == w["name"]]
        if not ra or not rb:
            continue
        print(f"{w['name']}: {len(ra)} vs {len(rb)} runs, seeds "
              f"{sorted({r['fingerprint']['seed'] for r in ra})} vs "
              f"{sorted({r['fingerprint']['seed'] for r in rb})}")
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in ra]
            vb = [r["metrics"][m["name"]]["value"] for r in rb]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            loss = change if m["better"] == "lower" else -change
            verdict = "worse" if loss > m["bound"] else "ok"
            worse = worse or verdict == "worse"
            print(f"  {m['name']:<14} {ma:>14.6g} -> {mb:>14.6g} {m['unit']:<7}"
                  f" {100 * change:+7.2f}%  bound {100 * m['bound']:.0f}%"
                  f"  {verdict}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
