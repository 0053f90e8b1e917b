#!/usr/bin/env python3
"""The repository benchmark for the Kite reproduction.

One measurement run (the interface BENCHMARK.json names):
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
Record, compare and self-check (see perfbench/README.md):
  python3 perfbench/run.py --record [--seed N ...] [--reps 5] [--out F]
  python3 perfbench/run.py --compare A.json B.json
  python3 perfbench/run.py --check      # smoke test, run by `dune runtest`
  python3 perfbench/run.py --spec       # BENCHMARK.json, from the catalogue

The program is built from source into .bench_build/ (or taken from
--exe).  Every measurement runs in a fresh child process, one at a
time, and the last line of standard output is one JSON object.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = ".bench_build"
CHILD_TIMEOUT = 170

WORKLOADS = [
    ("net-rx-udp",
     "Rx data path at the paper's 7 Gbps calibration anchor: NIC, bridge, "
     "netback Rx ring, grant copy, netfront, IPv4 reassembly; no TCP, no storage"),
    ("blk-seq",
     "storage path with writes beside verified reads: blkfront indirect "
     "requests, persistent grants, batching, the NVMe model; no network"),
    ("swarm-kv",
     "thousands of open-loop sessions of small TCP requests load the engine, "
     "scheduler, TCP stack and kvstore with little bulk data"),
    ("net-rx-udp-obs",
     "the net-rx-udp data path with all five observability sinks armed, as "
     "kite_ctl trace/top/path/incident users run it"),
]
NAMES = [w for w, _ in WORKLOADS]
NET = ["net-rx-udp", "swarm-kv", "net-rx-udp-obs"]

# A seed draws swarm-kv's traffic (arrivals, session lengths, request
# sizes), and one draw of 2,000 sessions moves its simulated numbers by
# several per cent from seed to seed.  So a swarm-kv measurement pools
# DRAWS draws, sub-seeds derived from its seed, and reports their mean.
# The other workloads' shape does not depend on the seed: one draw each.
DRAWS = {"swarm-kv": 8}


def draws(workload, seed):
    n = DRAWS.get(workload, 1)
    return [seed * n + i for i in range(n)]


# Where a metric comes from:
#   host   a host time of the plain runs or set-ups, scaled to the
#          reference host's speed
#   mem    heap or allocation of the plain runs, exact for a given draw
#   sim    simulated or counted by the plain runs, exact for a given draw
#   timer  a host timer or GC count of the plain runs; informational
#   traced from the traced pass (trace and path sinks armed); exact
#   probe  host ns per call of one public function; informational
#   ratio  the traced pass's host time over the plain runs'; informational
# A measurement's value is the mean over the draws of each draw's median
# (setup_s: the median of its set-ups).  --compare holds a metric with a
# bound to that bound, fails a per-layer sim or traced metric on any
# change, and only prints the rest.
EXACT = ("sim", "traced")


def metric(name, unit, kind, better, moves="", bound=None, applies=None,
           listed=True):
    return {"name": name, "unit": unit, "kind": kind, "better": better,
            "bound": bound, "moves": moves, "applies": applies or NAMES,
            "listed": listed}


# The end-to-end metrics BENCHMARK.json lists, in its order, then the two
# the record keeps beside them.  A simulated metric is exact for a given
# seed; its bound is the share by which the mean over a seed's draws may
# worsen, and it has to cover how far swarm-kv's mean moves from seed to
# seed (see README.md).
END_TO_END = [
    metric("ops_per_host_s", "1/s", "host", "higher", bound=0.10),
    metric("setup_s", "s", "host", "lower", bound=0.20),
    metric("peak_heap_mb", "MB", "mem", "lower", bound=0.10),
    metric("minor_words_per_op", "words/op", "mem", "lower", bound=0.05),
    metric("sim_ops_per_s", "op/sim_s", "sim", "higher", bound=0.15),
    metric("sim_mbytes_per_s", "MB/sim_s", "sim", "higher", bound=0.15),
    metric("sim_lat_p50_us", "sim_us", "sim", "lower", bound=0.05),
    metric("sim_lat_p99_us", "sim_us", "sim", "lower", bound=0.15),
    metric("error_rate", "ratio", "sim", "lower", bound=0.0, listed=False),
    metric("sim_lat_p999_us", "sim_us", "sim", "lower", bound=0.15,
           applies=["net-rx-udp", "swarm-kv", "net-rx-udp-obs"], listed=False),
]

SETUP = "setup_s on all workloads"
HOST_ALL = "ops_per_host_s, most on swarm-kv, least on blk-seq"
SIM_ALL = "sim_* on every workload"
P99 = "sim_ops_per_s and sim_lat_p99_us"
OBS = "ops_per_host_s on net-rx-udp-obs; zero or unchanged elsewhere"
GC = "ops_per_host_s and peak_heap_mb on all workloads"


def path_metrics():
    out = []
    for label, stages, wl in (
            ("net_tx", ["frontend", "queue", "ring", "backend", "deliver"],
             "swarm-kv"),
            ("blk", ["frontend", "queue", "ring", "backend", "map", "device",
                     "complete"], "blk-seq")):
        moves = "sim_lat_p99_us on " + wl
        for st in stages:
            out.append(metric(f"path.{label}.{st}.p99_us", "sim_us", "traced",
                              "lower", moves, applies=[wl]))
            out.append(metric(f"path.{label}.{st}.share", "ratio", "traced",
                              "lower", moves, applies=[wl]))
        for cls in ("queueing", "service", "notify"):
            out.append(metric(f"path.{label}.{cls}_share", "ratio", "traced",
                              "lower", moves, applies=[wl]))
    return out


PER_LAYER = [
    metric("core.build_ms", "ms", "timer", "lower", SETUP),
    metric("core.connect_ms", "ms", "timer", "lower", SETUP),
    metric("core.teardown_ms", "ms", "timer", "lower", SETUP),
    metric("core.sim_connect_ms", "sim_ms", "sim", "lower", SETUP),
    metric("sim.engine_event_ns", "ns", "probe", "lower", HOST_ALL),
    metric("sim.proc_switch_ns", "ns", "probe", "lower", HOST_ALL),
    metric("sim.pending_p50", "events", "traced", "lower", HOST_ALL),
    metric("sim.pending_max", "events", "traced", "lower", HOST_ALL),
    metric("xen.hypercalls_per_op", "1/op", "sim", "lower", SIM_ALL),
    metric("xen.grant_copy_per_op", "1/op", "sim", "lower", SIM_ALL),
    metric("xen.grant_map_per_op", "1/op", "sim", "lower", SIM_ALL),
    metric("xen.evtchn_send_per_op", "1/op", "sim", "lower", SIM_ALL),
    metric("xen.xenstore_ops_per_op", "1/op", "sim", "lower", SIM_ALL),
    metric("xen.ring_roundtrip_ns", "ns", "probe", "lower",
           "ops_per_host_s on net-rx-udp; barely blk-seq"),
    metric("xen.ring_disabled_hooks_ratio", "ratio", "probe", "lower",
           "ops_per_host_s on net-rx-udp; barely blk-seq"),
    metric("xen.grant_copy_1500_ns", "ns", "probe", "lower",
           "ops_per_host_s on net-rx-udp"),
    metric("xen.grant_copy_4096_ns", "ns", "probe", "lower",
           "ops_per_host_s on blk-seq"),
    metric("xen.xenstore_write_watch_ns", "ns", "probe", "lower", SETUP),
    metric("drivers.dd_vcpu_util", "ratio", "sim", "lower", P99),
    metric("drivers.domu_vcpu_util", "ratio", "sim", "lower", P99),
    metric("drivers.ops_per_notify", "op/notify", "sim", "higher", P99),
    metric("drivers.cpu.top1.share", "ratio", "traced", "lower", P99),
    metric("drivers.cpu.top2.share", "ratio", "traced", "lower", P99),
    metric("drivers.cpu.top3.share", "ratio", "traced", "lower", P99),
] + path_metrics() + [
    metric("devices.nic_frames_per_op", "1/op", "sim", "lower",
           "ops_per_host_s on swarm-kv; zero on blk-seq", applies=NET),
    metric("devices.nic_dropped", "count", "sim", "lower",
           "sim_ops_per_s on the net workloads", applies=NET),
    metric("devices.nvme_ops_per_op", "1/op", "sim", "lower",
           "ops_per_host_s on blk-seq; zero on the net workloads",
           applies=["blk-seq"]),
    metric("devices.nvme_bytes_per_op", "B/op", "sim", "lower",
           "ops_per_host_s on blk-seq; zero on the net workloads",
           applies=["blk-seq"]),
    metric("net.tcp_encode_ns", "ns", "probe", "lower",
           "ops_per_host_s on swarm-kv"),
    metric("blk.write.host_s", "s", "timer", "lower",
           "ops_per_host_s on blk-seq", applies=["blk-seq"]),
    metric("blk.read.host_s", "s", "timer", "lower",
           "ops_per_host_s on blk-seq", applies=["blk-seq"]),
    metric("blk.write.sim_lat_p99_us", "sim_us", "sim", "lower",
           "sim_lat_p99_us on blk-seq", applies=["blk-seq"]),
    metric("blk.read.sim_lat_p99_us", "sim_us", "sim", "lower",
           "sim_lat_p99_us on blk-seq", applies=["blk-seq"]),
    metric("swarm.offered", "count", "sim", "higher", "error_rate on swarm-kv",
           applies=["swarm-kv"]),
    metric("swarm.completed", "count", "sim", "higher",
           "error_rate on swarm-kv", applies=["swarm-kv"]),
    metric("swarm.errors", "count", "sim", "lower", "error_rate on swarm-kv",
           applies=["swarm-kv"]),
    metric("stats.histogram_observe_ns", "ns", "probe", "lower",
           "ops_per_host_s on swarm-kv and net-rx-udp-obs"),
    metric("gc.minor_collections", "count", "timer", "lower", GC),
    metric("gc.major_collections", "count", "timer", "lower", GC),
    metric("gc.promoted_words_per_op", "words/op", "timer", "lower", GC),
    metric("trace.events_per_op", "1/op", "sim", "lower", OBS,
           applies=["net-rx-udp-obs"]),
    metric("trace.dropped", "count", "sim", "lower", OBS,
           applies=["net-rx-udp-obs"]),
    metric("trace.orphan_hops", "count", "sim", "lower", OBS,
           applies=["net-rx-udp-obs"]),
    metric("check.errors", "count", "sim", "lower", OBS,
           applies=["net-rx-udp-obs"]),
    metric("trace.span_hop_ns", "ns", "probe", "lower", OBS),
    metric("obs.trace_overhead_ratio", "ratio", "ratio", "lower", OBS),
]

CATALOGUE = {m["name"]: m for m in END_TO_END + PER_LAYER}


def spec():
    """BENCHMARK.json, generated from the catalogue."""
    def entry(m, bound):
        e = {"name": m["name"], "unit": m["unit"], "better": m["better"]}
        if bound:
            e["bound"] = m["bound"]
        return e
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": w, "why": why} for w, why in WORKLOADS],
        "end_to_end": [entry(m, True) for m in END_TO_END if m["listed"]],
        "per_layer": [entry(m, False) for m in PER_LAYER],
    }


# ---------------------------------------------------------------- build


class Failed(Exception):
    pass


def build():
    """Build the program from source; nothing is printed on stdout."""
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--profile", "release",
           "./perfbench/main.exe"]
    # Dune's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           env=dict(os.environ, TMPDIR=tmp), timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failed(f"build: {e}")
    if p.returncode != 0:
        raise Failed(f"build failed with code {p.returncode}")
    return os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")


def child(exe, args):
    """One measurement in a fresh process; waits for it to end."""
    try:
        p = subprocess.run([exe] + args, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise Failed(f"{' '.join(args)}: timed out")
    if p.returncode != 0:
        raise Failed(f"{' '.join(args)}: exit {p.returncode}: "
                     f"{p.stderr.strip()[-500:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_one(exe, workload, seed, scale, traced=False):
    args = ["--run-one", workload, "--seed", str(seed), "--scale", scale]
    return child(exe, args + (["--traced"] if traced else []))


def setup(exe, workload):
    """One cold set-up (sinks armed, testbed built, frontend connected) in
    a fresh process."""
    return child(exe, ["--setup", workload])["setup_s"]


def probes(exe, depth, scale):
    return child(exe, ["--probes", "--depth", str(int(depth)),
                       "--scale", scale])


# ---------------------------------------------------------- aggregation


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(workload, reps, traced=None, probe=None):
    """Per-metric median/q1/q3/n over the reps, plus the traced and probe
    values; and the correctness verdict with its reasons.  Within a rep a
    metric is the mean over the draws of each draw's median, setup_s the
    median of the set-ups."""
    runs = [r for rep, _ in reps for r in rep]
    errors = [f"{workload}: a run failed ({r['failed']}/{r['attempted']} ops)"
              for r in runs if not r["ok"] or r["failed"]]
    by_draw = {}
    for r in runs:
        by_draw.setdefault(r["seed"], []).append(r)
    for d, rs in by_draw.items():
        if len({r["digest"] for r in rs}) > 1:
            errors.append(f"{workload}: draw {d}: simulated outputs differ "
                          "across runs")
    if traced is not None:
        plain = by_draw.get(traced["seed"], [])
        if not traced["ok"]:
            errors.append(f"{workload}: the traced pass failed")
        if not plain or traced["digest"] != plain[0]["digest"]:
            errors.append(f"{workload}: traced pass's simulated outputs "
                          "differ from the plain runs'")
    for r in runs:
        r["metrics"]["error_rate"] = r["failed"] / max(1, r["attempted"])

    def pooled(rep, name):
        per = {}
        for r in rep:
            per.setdefault(r["seed"], []).append(r["metrics"][name])
        for d, vs in per.items():
            if CATALOGUE[name]["kind"] in EXACT and len(set(vs)) > 1:
                errors.append(f"{workload}: draw {d}: {name} differs across "
                              f"runs: {vs}")
        return statistics.fmean(statistics.median(vs) for vs in per.values())

    values = {}
    for rep, setups in reps:
        values.setdefault("setup_s", []).append(statistics.median(setups))
        for name, m in CATALOGUE.items():
            if name != "setup_s" and name in rep[0]["metrics"]:
                values.setdefault(name, []).append(pooled(rep, name))
    if traced is not None and plain:
        base = statistics.median(r["metrics"]["host_s"] for r in plain)
        values["obs.trace_overhead_ratio"] = [traced["metrics"]["host_s"]
                                              / base]
    out = {}
    for name, m in CATALOGUE.items():
        if m["kind"] == "traced":
            vs = [traced["metrics"][name]] if traced else None
        elif m["kind"] == "probe":
            vs = [probe["metrics"][name]] if probe else None
        else:
            vs = values.get(name)
        if vs is None:
            if (m["kind"] in ("traced", "probe", "ratio") and traced is None) \
                    or workload not in m["applies"]:
                continue
            errors.append(f"{workload}: {name} missing")
            continue
        if m["kind"] in EXACT and len(set(vs)) > 1:
            errors.append(f"{workload}: {name} differs across reps: {vs}")
        q1, med, q3 = quartiles(vs)
        out[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                     "n": len(vs), "values": vs}
    notes = dict(runs[0]["notes"])
    if traced:
        notes.update(traced["notes"])
    notes["slowdown"] = "%.3f" % statistics.median(
        r["metrics"]["slowdown"] for r in runs)
    return {"metrics": out, "digest": runs[0]["digest"], "notes": notes,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}, errors


def collect(exe, workload, seed, scale, seconds, min_runs):
    """Plain runs in fresh children, each after one set-up, cycling
    through the seed's draws until [seconds] have passed, [min_runs] are
    done and every draw has run."""
    ds = draws(workload, seed)
    min_runs = max(min_runs, len(ds))
    runs, setups = [], []
    start = time.monotonic()
    while len(runs) < min_runs or time.monotonic() - start < seconds:
        t = time.monotonic()
        setups.append(setup(exe, workload))
        runs.append(run_one(exe, workload, ds[len(runs) % len(ds)], scale))
        # Stay well inside the 180 s a run may take on a slowed host.
        now = time.monotonic()
        if len(runs) >= len(ds) and now - start + (now - t) > 120:
            break
    return runs, setups


# ---------------------------------------------------- measurement run


def measure(exe, workload, seed, seconds, trace):
    """Plain runs for --seconds (three at least, and every draw), then
    with --trace 1 the traced pass and the host probes."""
    rep = collect(exe, workload, seed, "full", seconds, 3)
    traced = probe = None
    if trace:
        traced = run_one(exe, workload, draws(workload, seed)[0], "full",
                         traced=True)
        probe = probes(exe, traced["metrics"]["sim.pending_p50"], "full")
    summary, errors = summarise(workload, [rep], traced, probe)
    wanted = [m for m in (PER_LAYER if trace else END_TO_END) if m["listed"]]
    metrics = {}
    for m in wanted:
        s = summary["metrics"].get(m["name"])
        metrics[m["name"]] = {"value": s["median"] if s else 0.0,
                              "unit": m["unit"]}
    for e in errors:
        print(e, file=sys.stderr)
    return {"correct": not errors, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


# --------------------------------------------------------- record mode


def host_label(ocaml):
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.system(), "ocaml": ocaml,
            "python": platform.python_version()}


REP_SECONDS = {"full": 4, "smoke": 0}


def record(exe, seeds, reps, scale):
    """Per seed, [reps] reps interleaved across the workloads (rep-major,
    one child at a time), then one traced pass and one probe child per
    workload."""
    rec = {"scale": scale, "reps": reps, "seeds": {}}
    errors = []
    ocaml = None
    for seed in seeds:
        plain = {w: [] for w in NAMES}
        for _ in range(reps):
            for w in NAMES:
                plain[w].append(collect(exe, w, seed, scale,
                                        REP_SECONDS[scale], 1))
        per = {}
        for w in NAMES:
            traced = run_one(exe, w, draws(w, seed)[0], scale, traced=True)
            probe = probes(exe, traced["metrics"]["sim.pending_p50"], scale)
            ocaml = probe["ocaml"]
            per[w], errs = summarise(w, plain[w], traced, probe)
            errors += errs
        rec["seeds"][str(seed)] = per
    rec["host"] = host_label(ocaml)
    rec["catalogue"] = {k: {x: m[x] for x in ("unit", "kind", "better",
                                              "bound", "moves")}
                        for k, m in CATALOGUE.items()}
    return rec, errors


def fmt(v):
    if v == 0 or abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.4g}"
    return f"{v:.4f}"


def print_record(rec):
    for seed, per in rec["seeds"].items():
        print(f"seed {seed}")
        print(f"  {'workload':15s} {'metric':36s} {'unit':9s} "
              f"{'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
        for w in NAMES:
            for name, s in per[w]["metrics"].items():
                print(f"  {w:15s} {name:36s} {s['unit']:9s} "
                      f"{fmt(s['median']):>12s} {fmt(s['q1']):>12s} "
                      f"{fmt(s['q3']):>12s} {s['n']:3d}")


# -------------------------------------------------------- compare mode


def spread(s):
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def compare(a, b):
    """One row per (seed, workload, metric); returns the failure count."""
    failures = 0
    for seed in sorted(set(a["seeds"]) & set(b["seeds"])):
        for w in NAMES:
            ma = a["seeds"][seed].get(w, {}).get("metrics", {})
            mb = b["seeds"][seed].get(w, {}).get("metrics", {})
            print(f"seed {seed} {w}")
            for name, m in CATALOGUE.items():
                if name not in ma or name not in mb:
                    continue
                sa, sb = ma[name], mb[name]
                va, vb = sa["median"], sb["median"]
                delta = (vb - va) / abs(va) if va else (0.0 if vb == va
                                                         else float("inf"))
                worse = delta if m["better"] == "lower" else -delta
                bound = m["bound"]
                verdict = "info"
                if bound is not None:
                    beats = (max(sb["values"]) < min(sa["values"])
                             or min(sb["values"]) > max(sa["values"]))
                    if (spread(sa) > bound or spread(sb) > bound) and not beats:
                        verdict = "unresolved"
                    elif worse > bound:
                        verdict = "REGRESSED"
                    else:
                        verdict = "ok"
                elif m["kind"] in EXACT:
                    verdict = "same" if va == vb else "CHANGED"
                if verdict in ("CHANGED", "REGRESSED"):
                    failures += 1
                shown = "" if bound is None else f"{bound:.1%}"
                print(f"  {name:36s} {fmt(va):>12s} -> {fmt(vb):>12s} "
                      f"{delta:+8.2%} bound {shown:>6s}  {verdict}")
    return failures


# ----------------------------------------------------------- self-check


def check(exe):
    """The tier-1 smoke test: a two-rep smoke-scale record must carry
    every BENCHMARK.json metric with its unit, repeat its exact metrics,
    and hold the bypass predictions."""
    problems = []
    with open(SPEC) as f:
        if json.load(f) != spec():
            problems.append("BENCHMARK.json differs from `run.py --spec`")
    rec, errors = record(exe, [1], 2, "smoke")
    problems += errors
    per = rec["seeds"]["1"]
    s = spec()
    for m in s["end_to_end"] + s["per_layer"]:
        for w in NAMES:
            got = per[w]["metrics"].get(m["name"])
            if w in CATALOGUE[m["name"]]["applies"] and (
                    got is None or got["unit"] != m["unit"]):
                problems.append(f"{w}: {m['name']} [{m['unit']}] missing")

    def value(w, name):
        got = per[w]["metrics"].get(name)
        return got["median"] if got else 0.0

    for w in NET:
        if value(w, "devices.nvme_ops_per_op") != 0:
            problems.append(f"{w}: NVMe ops on a net workload")
    if value("blk-seq", "devices.nic_frames_per_op") != 0:
        problems.append("blk-seq: NIC frames on the storage workload")
    for w in ("net-rx-udp", "blk-seq", "swarm-kv"):
        if value(w, "trace.events_per_op") != 0:
            problems.append(f"{w}: trace events on a plain workload")
    for p in problems:
        print("FAIL:", p)
    if not problems:
        print(f"perfbench smoke: {len(s['end_to_end'])} end-to-end and "
              f"{len(s['per_layer'])} per-layer metrics on "
              f"{len(NAMES)} workloads, OK")
    return not problems


# ----------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out", default="perfbench-record.json")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spec", action="store_true")
    ap.add_argument("--exe", help="a built main.exe (skips the build)")
    a = ap.parse_args()
    if a.spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if a.compare:
        with open(a.compare[0]) as fa, open(a.compare[1]) as fb:
            failures = compare(json.load(fa), json.load(fb))
        print(f"{failures} change(s) or regression(s)")
        return 1 if failures else 0
    if not (a.check or a.record or a.workload):
        ap.print_usage(sys.stderr)
        return 2
    try:
        exe = a.exe or build()
        if a.check:
            return 0 if check(exe) else 1
        if a.record:
            rec, errors = record(exe, a.seed or [1], a.reps, "full")
            print_record(rec)
            with open(a.out, "w") as f:
                json.dump(rec, f, indent=1)
            for e in errors:
                print("FAIL:", e)
            print(f"record written to {a.out}")
            return 1 if errors else 0
        seed = (a.seed or [1])[0]
        print(json.dumps(measure(exe, a.workload, seed, a.seconds, a.trace)))
        return 0
    except Failed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
