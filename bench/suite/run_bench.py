#!/usr/bin/env python3
"""mobichk benchmark suite: build, run every workload, check, report.

Full suite (Release build; per workload 1 warm-up repetition and 5
samples of 3 back-to-back repetitions, round-robin across workloads; then
one traced repetition per workload):

    python3 bench/suite/run_bench.py --seed 42 [--out result.json]
        [--trace-out suite_trace.json]

One workload for a fixed time (the BENCHMARK.json contract): within
--seconds, one warm-up repetition and then measured ones, each metric the
median over them. The last line of stdout is one JSON object with
correct/attempted/failed/metrics:

    python3 bench/suite/run_bench.py --workload city_1e4 --seed 7 \\
        --seconds 30 --trace 0

Record the deterministic fingerprints of seeds 42 and 1042 into pins.json
(sequential runs, so the sharded workload is checked against shards=1):

    python3 bench/suite/run_bench.py --pin

Compare two result files, one row per (workload, metric):

    python3 bench/suite/run_bench.py --compare base.json head.json

Every repetition is its own mobichk_suite process, so peak RSS is that
process's ru_maxrss. The build tree is .bench_build/suite at the root of
the checkout. See README.md for the workloads and the metric catalog.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
BINARY = BUILD / "mobichk_suite"
PINS = HERE / "pins.json"
PINNED_SEEDS = (42, 1042)

# A repetition that runs longer than this is killed and counted as failed.
REP_TIMEOUT_S = 150.0
# Fewest measured repetitions per untraced --seconds run, after its warm-up.
MIN_REPS = 3
# Full suite: warm-up repetitions per workload, samples per workload, and
# repetitions per sample.
WARMUP = 1
REPS = 5
BURST = 3

# Suite-only metric: kept out of BENCHMARK.json because it is 0 when the
# program is correct. Bound 0 means any increase is a regression.
ERROR_RATE = {"name": "error_rate", "unit": "ratio", "better": "lower", "bound": 0.0}


class SuiteError(Exception):
    pass


# ---------------------------------------------------------------------------
# Statistics (tested by test_run_bench.py)


def summarize(values):
    """Median, quartiles and n, as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(summary):
    """Interquartile range as a share of the median."""
    width = summary["q3"] - summary["q1"]
    if summary["median"] == 0:
        return 0.0 if width == 0 else float("inf")
    return abs(width / summary["median"])


def verdict(base, head, better, bound):
    """Classifies head against base: improved, regressed, unchanged or
    unresolved (either side's IQR is wider than the bound, and the runs do
    not separate completely)."""
    b, h = summarize(base), summarize(head)
    lower = better == "lower"
    head_wins_all = max(head) < min(base) if lower else min(head) > max(base)
    if bound == 0:
        # Any change counts, so compare means: one bad run must show.
        bm, hm = statistics.fmean(base), statistics.fmean(head)
        if hm == bm:
            return "unchanged"
        return "improved" if (hm < bm) == lower else "regressed"
    if max(relative_spread(b), relative_spread(h)) > bound:
        return "improved" if head_wins_all else "unresolved"
    if b["median"] == 0:
        return "unchanged" if h["median"] == 0 else "unresolved"
    change = (h["median"] - b["median"]) / abs(b["median"])
    worse = change if lower else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


# ---------------------------------------------------------------------------
# Build and run


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_quiet(cmd):
    proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SuiteError(f"command failed: {' '.join(str(c) for c in cmd)}")


def build():
    if not (ROOT / "src" / "mobichk.hpp").is_file():
        raise SuiteError(f"no mobichk sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "mobichk_suite"])


def run_rep(workload, seed, profile=False, extra=()):
    """One repetition in its own process. Returns the parsed result with
    `peak_rss_mb` and `launch` (monotonic seconds) added, or None when the
    process failed (the reason goes to stderr)."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}", *extra]
    if profile:
        cmd.append("--profile")
    launch = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    streams = {}

    def drain(name, stream):
        streams[name] = stream.read().decode(errors="replace")

    readers = [threading.Thread(target=drain, args=(n, s))
               for n, s in (("out", proc.stdout), ("err", proc.stderr))]
    for r in readers:
        r.start()
    watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    for r in readers:
        r.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    lines = streams["out"].strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{streams['err']}")
        return None
    result = json.loads(lines[-1])
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["launch"] = launch
    for f in result["failures"]:
        sys.stderr.write(f"{workload} seed {seed}: {f}\n")
    return result


def load_pins():
    if not PINS.is_file():
        return {}
    with open(PINS) as f:
        return json.load(f)


class Tally:
    """Attempted/failed ops of one workload and its fingerprint status."""

    def __init__(self, workload, seed, pins):
        self.expected = pins.get(workload, {}).get(str(seed))
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.status = "unchecked" if self.expected is None else "match"
        self.last_ops = 1

    def add(self, result):
        """Counts one repetition's ops."""
        if result is None:
            self.attempted += self.last_ops
            self.failed += self.last_ops
            return
        ops = self.last_ops = result["ops"]
        failed = result["failed_ops"]
        fp = result["fingerprint"]
        if self.first is None:
            self.first = fp
        # Pinned seeds are checked against the pin; every seed is checked
        # for determinism across the repetitions of one run.
        if fp != (self.expected or self.first):
            self.status = "mismatch"
            failed = ops
        self.attempted += ops
        self.failed += failed


def end_to_end(metrics, results):
    """The end-to-end metrics of several repetitions: the median of each."""
    per_rep = [{"wall_s": r["timing"]["wall_s"],
                "events_per_s": r["timing"]["events_per_s"],
                "setup_s": r["timing"]["setup_s"],
                "peak_rss_mb": r["peak_rss_mb"]} for r in results]
    return {m["name"]: statistics.median(v[m["name"]] for v in per_rep) for m in metrics}


# ---------------------------------------------------------------------------
# --workload: one workload for a fixed time


def measure(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SuiteError(f"unknown workload {args.workload}; one of {', '.join(names)}")
    build()
    tally = Tally(args.workload, args.seed, load_pins())
    profile = args.trace == 1
    # A traced repetition of observed or paper_figs is long, and the
    # per-layer metrics have no bound, so one is enough.
    min_reps = 1 if profile else MIN_REPS
    # The run takes --seconds: a warm-up repetition, then repetitions
    # started only while the longest so far would still end in time. The
    # first repetition after a pause ran up to a third slower than the
    # next ones, so it is checked, not timed.
    start = time.monotonic()
    deadline = start + args.seconds
    warm = run_rep(args.workload, args.seed, profile=profile)
    tally.add(warm)
    longest = time.monotonic() - start
    crashed = int(warm is None)
    results = []
    while crashed < 3 and (len(results) < min_reps or time.monotonic() + longest <= deadline):
        start = time.monotonic()
        result = run_rep(args.workload, args.seed, profile=profile)
        longest = max(longest, time.monotonic() - start)
        tally.add(result)
        if result is None:
            crashed += 1
        else:
            results.append(result)
    if not results:
        raise SuiteError(f"{args.workload}: no repetition completed")
    if profile:
        metrics = {m["name"]: {"value": statistics.median(r["layers"][m["name"]] for r in results),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = end_to_end(spec["end_to_end"], results)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Full suite


def machine(results):
    first = next(r for rs in results.values() for r in rs if r is not None)
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "arch": platform.machine(),
            "compiler": first["compiler"], "build_type": first["build_type"]}


def span_rows(result, base):
    """Chrome B/E events for one repetition's span tree."""
    spans = result["spans"]
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    offset = result["launch"] - base
    events = []

    def emit(i):
        s = spans[i]
        events.append({"name": s["name"], "ph": "B", "ts": (offset + s["start"]) * 1e6})
        for c in children.get(i, []):
            emit(c)
        events.append({"ph": "E", "ts": (offset + s["end"]) * 1e6})

    for root in children.get(-1, []):
        emit(root)
    return events


def self_times(result):
    """Self time (span minus the part its children cover) by span path."""
    spans = result["spans"]
    child_total = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_total[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        path, p = [s["name"]], s["parent"]
        while p >= 0:
            path.append(spans[p]["name"])
            p = spans[p]["parent"]
        key = "/".join(reversed(path))
        out[key] = out.get(key, 0.0) + (s["end"] - s["start"]) - child_total[i]
    return out


def fmt(v):
    return f"{v:.6g}"


def suite(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = spec["end_to_end"] + [ERROR_RATE]
    build()
    pins = load_pins()
    base = time.monotonic()
    measured = {w: [] for w in workloads}
    tallies = {w: Tally(w, args.seed, pins) for w in workloads}
    samples = {w: {m["name"]: [] for m in e2e} for w in workloads}
    for rnd in range(WARMUP + REPS):
        warm = rnd < WARMUP
        for w in workloads:
            tally = tallies[w]
            attempted, failed = tally.attempted, tally.failed
            burst = [run_rep(w, args.seed) for _ in range(1 if warm else BURST)]
            for r in burst:
                tally.add(r)
            if warm:
                continue
            ok = [r for r in burst if r is not None]
            measured[w] += ok
            if ok:
                for name, value in end_to_end(spec["end_to_end"], ok).items():
                    samples[w][name].append(value)
            samples[w]["error_rate"].append(
                (tally.failed - failed) / (tally.attempted - attempted))
    traced = {}
    for w in workloads:
        traced[w] = run_rep(w, args.seed, profile=True)
        tallies[w].add(traced[w])

    doc = {"seed": args.seed, "reps": REPS, "burst": BURST, "warmup": WARMUP,
           "machine": machine(measured), "workloads": {}}
    trace_events = [{"name": "process_name", "ph": "M", "pid": 1,
                     "args": {"name": "mobichk_suite"}}]
    failed_any = False
    for tid, w in enumerate(workloads, start=1):
        ok = measured[w]
        tally = tallies[w]
        failed_any |= tally.failed > 0
        entry = {"attempted": tally.attempted, "failed": tally.failed,
                 "fingerprint": tally.first, "fingerprint_status": tally.status,
                 "samples": samples[w],
                 "summary": {m["name"]: dict(summarize(samples[w][m["name"]]), unit=m["unit"])
                             for m in e2e if samples[w][m["name"]]}}
        if traced[w] is not None:
            entry["layers"] = traced[w]["layers"]
        if ok:
            selfs = [self_times(r) for r in ok]
            entry["self_s"] = {k: statistics.median(s.get(k, 0.0) for s in selfs)
                               for k in selfs[0]}
            if "accuracy" in ok[0]:
                entry["accuracy"] = ok[0]["accuracy"]
        doc["workloads"][w] = entry
        trace_events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                             "args": {"name": w}})
        for r in measured[w] + [traced[w]]:
            if r is not None:
                trace_events += [dict(e, pid=1, tid=tid) for e in span_rows(r, base)]

    report(doc, spec, e2e)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}")
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps({"traceEvents": trace_events}) + "\n")
        print(f"wrote {args.trace_out}")
    return 1 if failed_any else 0


def report(doc, spec, e2e):
    print(f"machine: {doc['machine']}")
    print(f"seed {doc['seed']}: {doc['warmup']} warm-up repetition + {doc['reps']} samples per "
          f"workload, round-robin; a sample is the median of {doc['burst']} back-to-back "
          "repetitions")
    for w, entry in doc["workloads"].items():
        print(f"\n== {w}: {entry['attempted']} ops, {entry['failed']} failed, "
              f"fingerprint {entry['fingerprint']} ({entry['fingerprint_status']})")
        print(f"  {'metric':<14} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
        for m in e2e:
            s = entry["summary"].get(m["name"])
            if s:
                print(f"  {m['name']:<14} {m['unit']:<8} {fmt(s['median']):>12} "
                      f"{fmt(s['q1']):>12} {fmt(s['q3']):>12} {s['n']:>3}")
        for a in entry.get("accuracy", []):
            fig = a["figure"].replace(". ", "").lower()
            paper = f"   paper: {a['paper']}" if a["paper"] else ""
            print(f"  accuracy.{fig}.tp_bcs_max_gain_pct = {a['tp_bcs_max_gain_pct']:.1f} "
                  f"(T_switch={a['tp_bcs_at']:g})  "
                  f"accuracy.{fig}.bcs_qbc_max_gain_pct = {a['bcs_qbc_max_gain_pct']:.1f} "
                  f"(T_switch={a['bcs_qbc_at']:g}){paper}")
        if "accuracy" in entry:
            print("  (reference only: comm_mean is calibrated, DESIGN.md \"Substitutions\"; "
                  "these lines compare shapes, they do not validate)")
        layers = entry.get("layers", {})
        if layers:
            print("  per-layer (traced repetition):")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name in units:
                print(f"    {name:<42} {fmt(layers.get(name, 0.0)):>14} {units[name]}")
        if entry.get("self_s"):
            print("  self time, median over measured repetitions (s):")
            for path, v in entry["self_s"].items():
                print(f"    {path:<60} {v:10.4f}")


# ---------------------------------------------------------------------------
# --pin and --compare


def pin(spec):
    build()
    pins = {}
    for w in (x["name"] for x in spec["workloads"]):
        pins[w] = {}
        for seed in PINNED_SEEDS:
            result = run_rep(w, seed, extra=["--shards=1"])
            if result is None or result["failed_ops"]:
                raise SuiteError(f"{w} seed {seed}: cannot pin a failing run")
            pins[w][str(seed)] = result["fingerprint"]
            print(f"{w} seed {seed}: {result['fingerprint']}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS.relative_to(ROOT)}")
    return 0


def compare(base_path, head_path, spec):
    with open(base_path) as f:
        base = json.load(f)
    with open(head_path) as f:
        head = json.load(f)
    regressed = 0
    print(f"{'workload':<18} {'metric':<14} {'base median':>12} {'head median':>12} "
          f"{'change':>8}  verdict")
    for w, b in base["workloads"].items():
        h = head["workloads"].get(w)
        if h is None:
            continue
        for m in spec["end_to_end"] + [ERROR_RATE]:
            bs, hs = b["samples"].get(m["name"]), h["samples"].get(m["name"])
            if not bs or not hs:
                continue
            v = verdict(bs, hs, m["better"], m["bound"])
            regressed += v == "regressed"
            bm, hm = statistics.median(bs), statistics.median(hs)
            change = f"{100 * (hm - bm) / bm:+.1f}%" if bm else "n/a"
            print(f"{w:<18} {m['name']:<14} {fmt(bm):>12} {fmt(hm):>12} {change:>8}  {v}")
    return 1 if regressed else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload for --seconds (contract mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="full suite: result JSON path")
    parser.add_argument("--trace-out", help="full suite: suite span trace (Chrome JSON) path")
    parser.add_argument("--pin", action="store_true", help="record fingerprints into pins.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.pin:
            return pin(spec)
        if args.workload:
            return measure(args, spec)
        return suite(args, spec)
    except (SuiteError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
