#!/usr/bin/env python3
"""Run the gated benches, check every gate, and rewrite the BENCH_*.json files.

Three tables drive the check:
  RUNS   each bench configuration, run once: binary and environment;
  FILES  which runs' JSON records each BENCH_*.json holds, in order;
  GATES  one row per check: (run, key, op, bound[, other run]).
A key is a '/'-path into the run's record ("metrics/speedup.rib.simd"); a
missing key fails its row. A missing binary, a non-zero exit or an
unreadable record fails the run and every row on it. Every row is evaluated
even after one fails. One table then prints each row's committed value (the
BENCH file in this checkout) beside the fresh one. A BENCH file is rewritten
only when every run it holds finished and every row on those runs passed.

Every run pins MRT_THREADS. The timing gates are single-core claims, and
the determinism twins compare 1 thread with 4, which the par pool honours
however many hardware threads the host has.

Usage: scripts/bench_gates.py [build-dir]   (default: build at the repo root;
exit 1 on any failed run or row)
"""
import difflib
import json
import operator
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

T1, T4 = {"MRT_THREADS": "1"}, {"MRT_THREADS": "4"}
# The journal-off records are the baseline the overhead row below holds
# later runs to.
JOURNAL_OFF = {**T1, "MRT_JOURNAL": "0"}
RUNS = {
    "perf_routing@1": ("perf_routing", JOURNAL_OFF),
    "perf_inference@1": ("perf_inference", JOURNAL_OFF),
    "fig2@1": ("fig2_global_exact", T1),
    "fig2@4": ("fig2_global_exact", T4),
    "fig3@1": ("fig3_local_exact", T1),
    "fig3@4": ("fig3_local_exact", T4),
    "chaos@1": ("chaos_campaign", T1),
    "chaos@4": ("chaos_campaign", T4),
    "chaos.boxed@1": ("chaos_campaign", {**T1, "MRT_COMPILE": "0"}),
    "chaos.nodyn@1": ("chaos_campaign", {**T1, "MRT_DYN": "0"}),
    "perf_compile@1": ("perf_compile", T1),
    "perf_dyn@1": ("perf_dyn", T1),
    "perf_rib@1": ("perf_rib", T1),
    "adv_schedules@1": ("adv_schedules", T1),
}
# google-benchmark suites: their records also carry per-benchmark cpu times.
GBENCH = {"perf_routing@1", "perf_inference@1"}

FILES = {
    "BENCH_obs.json": ["perf_routing@1", "perf_inference@1"],
    "BENCH_par.json": ["fig2@1", "fig2@4", "fig3@1", "fig3@4"],
    "BENCH_chaos.json": ["chaos@1", "chaos@4"],
    "BENCH_compile.json": ["perf_compile@1", "chaos.boxed@1", "chaos@1"],
    "BENCH_dyn.json": ["perf_dyn@1", "chaos.nodyn@1", "chaos@1"],
    "BENCH_rib.json": ["perf_rib@1"],
    "BENCH_adv.json": ["adv_schedules@1"],
}

# Ops: >= <= == compare a number with the bound. "same": the run's stdout
# is byte-identical to the bound run's. "ratio>=": key over the same key of
# the other run. "quantiles": every histogram carries p50/p90/p99 and at
# least `bound` of them are *_ns latency timers. "median/base<=": the median
# over benchmarks of fresh / committed cpu time (google-benchmark picks
# iteration counts to fill a fixed time, so wall_s cannot show overhead).
M = "metrics/"
GATES = [
    ("perf_routing@1", "histograms", "quantiles", 1),
    ("perf_inference@1", "histograms", "quantiles", 0),
    ("perf_routing@1", "benchmarks", "median/base<=", 1.30),
    ("perf_inference@1", "benchmarks", "median/base<=", 1.30),
    ("fig2@4", "stdout", "same", "fig2@1"),
    ("fig3@4", "stdout", "same", "fig3@1"),
    ("chaos@4", "stdout", "same", "chaos@1"),
    ("chaos.boxed@1", "stdout", "same", "chaos@1"),
    ("chaos.nodyn@1", "stdout", "same", "chaos@1"),
    ("fig2@1", "threads/effective", "==", 1),
    ("fig2@4", "threads/effective", "==", 4),
    ("fig3@1", "threads/effective", "==", 1),
    ("fig3@4", "threads/effective", "==", 4),
    ("chaos@1", "threads/effective", "==", 1),
    ("chaos@4", "threads/effective", "==", 4),
    ("perf_compile@1", M + "speedup.dijkstra.depth3", ">=", 2.0),
    ("perf_compile@1", M + "speedup.dijkstra.depth4", ">=", 2.0),
    ("perf_compile@1", M + "fallbacks", "==", 0),
    ("chaos.boxed@1", "wall_s", "ratio>=", 1.5, "chaos@1"),
    ("perf_dyn@1", M + "speedup.update.dijkstra.depth1", ">=", 2.0),
    ("perf_dyn@1", M + "speedup.update.bellman.depth1", ">=", 2.0),
    ("perf_dyn@1", M + "speedup.update.dijkstra.depth3", ">=", 3.0),
    ("perf_dyn@1", M + "speedup.update.bellman.depth3", ">=", 2.5),
    ("perf_dyn@1", M + "affected_pct.dijkstra.depth1", "<=", 25.0),
    ("perf_dyn@1", M + "affected_pct.bellman.depth1", "<=", 25.0),
    ("perf_dyn@1", M + "affected_pct.dijkstra.depth3", "<=", 25.0),
    ("perf_dyn@1", M + "affected_pct.bellman.depth3", "<=", 25.0),
    ("perf_dyn@1", M + "speedup.chaos_flaps", ">=", 1.0),
    ("perf_dyn@1", M + "speedup.chaos_truth_check", ">=", 1.1),
    ("perf_dyn@1", M + "identical", "==", 1),
    ("perf_dyn@1", M + "chaos_verdicts_identical", "==", 1),
    ("perf_rib@1", M + "speedup.rib.cold_batched", ">=", 3.0),
    ("perf_rib@1", M + "speedup.rib.simd", ">=", 1.5),
    ("perf_rib@1", M + "rib.warm.affected_pct", "<=", 25.0),
    ("perf_rib@1", M + "rib.warm.affected_max_pct", ">=", 0),
    ("perf_rib@1", M + "rib.peak_rss_mb", ">=", 0),
    ("perf_rib@1", M + "rib.warm.baseline_warm", "==", 1),
    ("perf_rib@1", M + "rib.thread_invariant", "==", 1),
    ("perf_rib@1", M + "rib.toggle_invariant", "==", 1),
    ("perf_rib@1", M + "rib.compile_invariant", "==", 1),
    ("perf_rib@1", M + "rib.simd_invariant", "==", 1),
    ("perf_rib@1", M + "identical", "==", 1),
    ("adv_schedules@1", M + "adv.cert_validity", "==", 1),
    ("adv_schedules@1", M + "adv.bound_violations", "==", 0),
    ("adv_schedules@1", M + "adv.overhead_per_event", "<=", 1.25),
]
CMP = {">=": operator.ge, "<=": operator.le, "==": operator.eq}
NS_PER = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def run(name, build, tmp):
    """Runs one configuration; returns (record, stdout, error)."""
    binary, env = RUNS[name]
    path = os.path.join(build, "bench", binary)
    if not os.access(path, os.X_OK):
        return None, None, f"{path} not built (cmake --build {build} -j)"
    out, gb = os.path.join(tmp, name + ".json"), os.path.join(tmp, name + ".gb")
    cmd = [path, "--json", out]
    if name in GBENCH:
        cmd += ["--benchmark_out=" + gb, "--benchmark_out_format=json"]
    p = subprocess.run(cmd, env={**os.environ, **env}, capture_output=True)
    if p.returncode != 0:
        tail = p.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return None, None, f"exit {p.returncode}: " + " | ".join(tail)
    try:
        rec = json.load(open(out))
        if name in GBENCH:
            rec["benchmarks"] = {b["name"]: b["cpu_time"] * NS_PER[b["time_unit"]]
                                 for b in json.load(open(gb))["benchmarks"]}
    except (OSError, ValueError, KeyError) as e:
        return None, None, f"unreadable record: {e}"
    return rec, p.stdout, None


def lookup(rec, key):
    for part in key.split("/"):
        rec = rec.get(part) if isinstance(rec, dict) else None
    return rec


def quantiles(hists, need_ns):
    if not isinstance(hists, dict):
        return None, False
    short = [h for h, q in hists.items() if not {"p50", "p90", "p99"} <= set(q)]
    ns = sum(h.endswith("_ns") for h in hists)
    shown = f"{ns} *_ns of {len(hists)}"
    if short:
        shown += f", {short[0]} lacks p50/p90/p99"
    return shown, not short and ns >= need_ns


def check(row, fresh, base, outs):
    """Returns (committed, fresh, status) for one gate row."""
    name, key, op, bound = row[:4]
    if op == "same":
        a, b = outs.get(name), outs.get(bound)
        if a is None or b is None:
            return "-", "no stdout", "FAIL"
        return "-", "identical" if a == b else "differs", "ok" if a == b else "FAIL"
    if op == "ratio>=":
        def ratio(recs):
            n, d = lookup(recs.get(name), key), lookup(recs.get(row[4]), key)
            return n / d if n and d else None
        old, new = ratio(base), ratio(fresh)
        return num(old), num(new), "ok" if new is not None and new >= bound else "FAIL"
    if op == "quantiles":
        old, _ = quantiles(lookup(base.get(name), key), bound)
        new, ok = quantiles(lookup(fresh.get(name), key), bound)
        return old or "-", new or "missing", "ok" if ok else "FAIL"
    if op == "median/base<=":
        old, new = lookup(base.get(name), key), lookup(fresh.get(name), key)
        if not isinstance(new, dict):
            return "-", "missing", "FAIL"
        ratios = [new[b] / old[b] for b in new if isinstance(old, dict) and old.get(b)]
        if not ratios:
            return "no baseline", f"{len(new)} benchmarks", "skip"
        m = statistics.median(ratios)
        return f"{len(ratios)} benchmarks", num(m), "ok" if m <= bound else "FAIL"
    old, new = lookup(base.get(name), key), lookup(fresh.get(name), key)
    ok = isinstance(new, (int, float)) and CMP[op](new, bound)
    return num(old), num(new), "ok" if ok else "FAIL"


def num(v):
    if v is None:
        return "missing"
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def main():
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    build = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ROOT + "/build")
    os.chdir(ROOT)
    base = {}
    for path, names in FILES.items():
        try:
            recs = json.load(open(path))
        except (OSError, ValueError):
            recs = []
        for name, rec in zip(names, recs):
            base.setdefault(name, rec)

    fresh, outs, failed = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            t0 = time.monotonic()
            rec, out, err = run(name, build, tmp)
            print(f"== {name:<17} {time.monotonic() - t0:6.1f} s  {err or 'ok'}",
                  flush=True)
            if err:
                failed[name] = err
            else:
                fresh[name], outs[name] = rec, out

    rows = [(row, *check(row, fresh, base, outs)) for row in GATES]
    hw = {str(lookup(r, "threads/hardware")) for r in fresh.values()}
    print(f"\nthreads.hardware = {'/'.join(sorted(hw)) or '?'};",
          "every run pins MRT_THREADS")
    table = [("run", "key", "committed", "fresh", "gate", "")]
    for (name, key, op, bound, *other), old, new, status in rows:
        gate = f"{op} {bound}" + (f" {other[0]}" if other else "")
        table.append((name, key, old, new, gate, status))
    widths = [max(len(str(r[i])) for r in table) for i in range(6)]
    for r in table:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())

    bad = [r for r in rows if r[3] == "FAIL"]
    for (name, key, op, bound, *_), *_ in bad:
        if op == "same" and name in outs and bound in outs:
            diff = difflib.unified_diff(
                outs[bound].decode(errors="replace").splitlines(),
                outs[name].decode(errors="replace").splitlines(),
                bound, name, lineterm="")
            print(f"\n{name} vs {bound}:", *list(diff)[:20], sep="\n  ")
    for name, err in failed.items():
        print(f"\nrun {name} FAILED: {err}")
    count = {s: sum(r[3] == s for r in rows) for s in ("ok", "FAIL", "skip")}
    print(f"\n{len(rows)} rows: {count['ok']} ok, {count['FAIL']} FAIL, "
          f"{count['skip']} skip; {len(fresh)}/{len(RUNS)} runs finished")

    bad_runs = set(failed) | {r[0][0] for r in bad}
    for path, names in FILES.items():
        if bad_runs & set(names):
            print(f"kept {path}: {', '.join(sorted(bad_runs & set(names)))} failed")
            continue
        with open(path, "w") as f:
            json.dump([fresh[n] for n in names], f)
            f.write("\n")
        print(f"wrote {path} ({len(names)} records)")
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())
