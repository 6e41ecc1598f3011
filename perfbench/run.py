#!/usr/bin/env python3
"""The watchmand benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. Builds watchmand and the load generator
(perfbench/CMakeLists.txt) from the sources under src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload against a freshly spawned daemon, checks every output, prints
each metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
perfbench/README.md explains the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpcd_serial", "hot_get_pipelined", "tpcd_concurrent")
LOADER_TIMEOUT_S = 170

# Request classes of the breakdown table: the loader's span root names,
# the client RTT entries that time them, and their wire requests.
CLASSES = (
    ("GET hit", ("request.get_hit",), ("get_hit",)),
    ("GET miss + fill", ("request.get_miss", "request.execute"),
     ("get_miss", "execute")),
    ("invalidate", ("request.invalidate_relation",),
     ("invalidate_relation",)),
)
CLIENT_CODEC = ("protocol.encode_request", "protocol.decode_response")
SERVER_CODEC = ("protocol.decode_request", "protocol.encode_response")
KEYS = ("keys.compress", "keys.signature")
FACADE = {"request.get_hit": "facade.get_hit",
          "request.get_miss": "facade.get_miss",
          "request.execute": "facade.execute_fill",
          "request.invalidate_relation": "facade.invalidate_relation"}
CACHE = {"request.get_hit": "cache.hit", "request.get_miss": "cache.miss"}
STORE = {"request.get_hit": "payload_store.get",
         "request.execute": "payload_store.put"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------- parsers

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)\s*$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Prometheus text format -> list of (name, {label: value}, float)."""
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError("bad metrics line: " + line)
        labels = dict(_LABEL.findall(match.group(3) or ""))
        samples.append((match.group(1), labels, float(match.group(4))))
    return samples


def metric_sum(samples, name, **labels):
    """Sum of the samples of `name` whose labels include `labels`."""
    return sum(v for n, l, v in samples
               if n == name and all(l.get(k) == x for k, x in labels.items()))


def histogram_buckets(samples, name, **labels):
    """Non-cumulative bucket counts of histogram `name`, keyed by le."""
    cumulative = sorted(
        (float(l["le"]), v) for n, l, v in samples
        if n == name + "_bucket" and
        all(l.get(k) == x for k, x in labels.items()))
    buckets, previous = {}, 0.0
    for le, count in cumulative:
        buckets[le] = buckets.get(le, 0.0) + count - previous
        previous = count
    return buckets


def histogram_quantile(before, after, name, q, **labels):
    """Quantile `q` of the samples `name` recorded between two scrapes,
    interpolated within the bucket that holds it; 0 when none were."""
    old = histogram_buckets(before, name, **labels)
    new = histogram_buckets(after, name, **labels)
    delta = sorted((le, new.get(le, 0.0) - old.get(le, 0.0))
                   for le in set(old) | set(new))
    total = sum(count for _, count in delta)
    if total <= 0:
        return 0.0
    target, seen, lower = q * total, 0.0, 0.0
    for le, count in delta:
        if count > 0 and seen + count >= target:
            if le == float("inf"):
                return lower
            return lower + (le - lower) * (target - seen) / count
        seen += count
        lower = le
    return lower


def parse_schedstat(text):
    """{tid: on-CPU ns} from "<tid> <run_ns> <wait_ns> <timeslices>" lines
    (the loader's dump of /proc/<pid>/task/*/schedstat)."""
    return {int(f[0]): int(f[1])
            for f in (line.split() for line in text.splitlines()) if f}


def cpu_delta_ns(before, after):
    """CPU the daemon spent between two schedstat dumps, per thread so a
    thread that started in between counts from zero."""
    old = parse_schedstat(before)
    return sum(ns - old.get(tid, 0) for tid, ns in parse_schedstat(after).items())


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then brings the build up to date. Returns the
    directory holding watchmand and perfbench_load."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "main.cc")):
        fail("watchman sources not found under " + os.path.join(ROOT, "src"))
    out = os.path.abspath(build_dir())
    ninja = shutil.which("ninja")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE="]
                     + (["-G", "Ninja"] if ninja else []))
    steps.append(["cmake", "--build", out, "-j", "3"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return out


def provenance(raw, seed):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "compiler": raw["compiler"], "flags": raw["cxx_flags"],
            "nproc": raw["nproc"], "kernel": raw["kernel"], "seed": seed,
            "daemon_flags": raw["daemon_args"], "backend": raw["backend"],
            "cpu": raw["cpu"]}


# ---------------------------------------------------------------- metrics

def end_to_end(raw, out):
    """The timings are medians over the run's sub-windows; csr and
    hit_ratio count every query of each connection's first trace."""
    u, slices = raw["untraced"], raw["untraced_slices"]
    sched = [read(out, "schedstat_%d.txt" % i) for i in range(len(slices) + 1)]
    cpu_us = [cpu_delta_ns(sched[i], sched[i + 1]) / 1000.0 / s["wire_requests"]
              for i, s in enumerate(slices)]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "queries_per_s": (statistics.median(
            s["queries"] / s["window_s"] for s in slices), "1/s"),
        "query_p50_us": (statistics.median(
            s["query_p50_us"] for s in slices), "us"),
        "server_cpu_us_per_req": (statistics.median(cpu_us), "us"),
        "csr": (u["acct_saved"] / u["acct_cost"], "ratio"),
        "hit_ratio": (u["acct_hits"] / u["acct_queries"], "ratio"),
        "server_rss_mib": (raw["peak_rss_kib"] / 1024.0, "MiB"),
    }


def breakdown(layers, traced, server_cpu_us):
    """Per request class: traced layer self-times (us, sums of per-class
    p50s over the class's wire requests) beside the client RTT p50.
    Returns (rows, in-process time of a GET hit, client codec included)."""
    by_class = layers["p50_ns_by_class"]
    rows, get_hit_us = [], 0.0
    for label, roots, rtts in CLASSES:
        if any(traced[r]["count"] == 0 for r in rtts):
            continue

        def total(kinds):
            return sum(by_class[r][k] for r in roots for k in kinds) / 1000.0

        keys = total(KEYS)
        cache = sum(by_class[r][CACHE[r]] for r in roots if r in CACHE) / 1e3
        store = sum(by_class[r][STORE[r]] for r in roots if r in STORE) / 1e3
        facade = sum(by_class[r][FACADE[r]] for r in roots) / 1000.0
        row = {
            "class": label, "wire_requests": len(roots),
            "client_codec_us": total(CLIENT_CODEC),
            "server_codec_us": total(SERVER_CODEC),
            "keys_us": keys,
            "facade_self_us": max(0.0, facade - keys - cache - store),
            "cache_us": cache, "payload_store_us": store,
            "client_rtt_p50_us": sum(traced[r]["p50_us"] for r in rtts),
            "server_cpu_us_per_req": server_cpu_us}
        row["server_sum_us"] = row["server_codec_us"] + facade
        if label == "GET hit":
            get_hit_us = row["client_codec_us"] + row["server_sum_us"]
        rows.append(row)
    return rows, get_hit_us


def per_layer(raw, out):
    t, u, layers = raw["traced"], raw["untraced"], raw["layers"]
    p50 = layers["p50_ns"]
    before = parse_prometheus(read(out, "metrics_start.txt"))
    after = parse_prometheus(read(out, "metrics_end.txt"))

    def delta(name, **labels):
        return metric_sum(after, name, **labels) - metric_sum(before, name,
                                                              **labels)

    def hist_us(name, **labels):
        return histogram_quantile(before, after, name, 0.5, **labels) * 1e6

    # The daemon serves the untraced and traced slices alike; its CPU
    # and /metrics deltas cover both.
    server_cpu_us = cpu_delta_ns(read(out, "schedstat_0.txt"),
                                 read(out, "schedstat_%d.txt" % raw["slices"])
                                 ) / 1000.0 / \
        (u["wire_requests"] + t["wire_requests"])
    rows, get_hit_us = breakdown(layers, t, server_cpu_us)
    lookups = delta("watchman_cache_lookups_total")
    misses = lookups - delta("watchman_cache_hits_total")
    acquisitions = delta("watchman_cache_lock_acquisitions_total")
    served = delta("watchman_server_requests_served_total")
    requests = layers["window_requests"] or 1
    qps_untraced = u["queries"] / u["window_s"]
    qps_traced = t["queries"] / t["window_s"]
    m = {
        "client.get_rtt_p50_us": (t["get"]["p50_us"], "us"),
        "client.get_rtt_p99_us": (t["get"]["p99_us"], "us"),
        "client.execute_rtt_p50_us": (t["execute"]["p50_us"], "us"),
        "client.execute_rtt_p99_us": (t["execute"]["p99_us"], "us"),
        "client.invalidate_rtt_p50_us":
            (t["invalidate_relation"]["p50_us"], "us"),
        "client.cpu_us_per_req":
            (raw["client_cpu_s"] * 1e6 / u["wire_requests"], "us"),
        "protocol.encode_request_ns": (p50["protocol.encode_request"], "ns"),
        "protocol.decode_request_ns": (p50["protocol.decode_request"], "ns"),
        "protocol.encode_response_ns": (p50["protocol.encode_response"], "ns"),
        "protocol.decode_response_ns": (p50["protocol.decode_response"], "ns"),
        "protocol.wire_bytes_per_req": (layers["wire_bytes"] / requests,
                                        "bytes"),
        "server.request_p50_us.get":
            (hist_us("watchman_server_request_seconds", op="get"), "us"),
        "server.request_p50_us.execute":
            (hist_us("watchman_server_request_seconds", op="execute"), "us"),
        "server.queue_wait_p50_us":
            (hist_us("watchman_server_queue_wait_seconds"), "us"),
        "server.reply_p50_us": (hist_us("watchman_server_reply_seconds"),
                                "us"),
        "server.inline_share":
            (delta("watchman_server_inline_dispatched_total") / served
             if served else 0.0, "ratio"),
        "server.ready_queue_peak":
            (metric_sum(after, "watchman_server_ready_queue_peak"), "count"),
        "server.sheds": (delta("watchman_server_shed_total"), "count"),
        "server.transport_us_per_req":
            (t["get_hit"]["p50_us"] - get_hit_us, "us"),
        "keys.compress_ns": (p50["keys.compress"], "ns"),
        "keys.signature_ns": (p50["keys.signature"], "ns"),
        "facade.get_hit_ns": (p50["facade.get_hit"], "ns"),
        "facade.get_miss_ns": (p50["facade.get_miss"], "ns"),
        "facade.execute_fill_ns": (p50["facade.execute_fill"], "ns"),
        "facade.invalidate_relation_ns":
            (p50["facade.invalidate_relation"], "ns"),
        "facade.dedup_hits": (delta("watchman_facade_dedup_total"), "count"),
        "cache.hit_ns": (p50["cache.hit"], "ns"),
        "cache.miss_ns": (p50["cache.miss"], "ns"),
        "cache.lock_contended_share":
            (delta("watchman_cache_lock_contended_total") / acquisitions
             if acquisitions else 0.0, "ratio"),
        "cache.evictions_per_miss":
            (delta("watchman_cache_evictions_total") / misses
             if misses else 0.0, "ratio"),
        "cache.admit_share":
            (delta("watchman_cache_insertions_total") / misses
             if misses else 0.0, "ratio"),
        "payload_store.get_ns": (p50["payload_store.get"], "ns"),
        "payload_store.put_ns": (p50["payload_store.put"], "ns"),
        "payload_store.bytes_copied_per_req":
            (layers["store_bytes"] / requests, "bytes"),
        "trace.layer_sum_us": (layers["layer_sum_us"], "us"),
        "trace.overhead_share": (qps_untraced / qps_traced - 1.0, "ratio"),
        "accounting_extra_refs":
            (raw["lookups_delta"] - u["queries"] - t["queries"], "count"),
    }
    return m, rows, server_cpu_us


def read(out, name):
    with open(os.path.join(out, name)) as f:
        return f.read()


# ------------------------------------------------------------------- main

def run_workload(binaries, workload, seed, seconds, trace):
    out = os.path.join(build_dir(), "out", workload)
    os.makedirs(out, exist_ok=True)
    command = [os.path.join(binaries, "perfbench_load"), "run",
               "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%g" % seconds, "--trace=%d" % trace,
               "--watchmand=" + os.path.join(binaries, "watchmand"),
               "--out=" + out]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=LOADER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("load generator timed out")
    if done.returncode != 0 or not done.stdout.strip():
        fail("load generator failed with status %d" % done.returncode)
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    u = raw["untraced"]
    passes = [u, raw["traced"]] if trace else [u]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    checks = {"outputs": failed == 0}
    print("workload %s, seed %d, %s run" %
          (workload, seed, "traced" if trace else "untraced"))
    print("provenance " + json.dumps(provenance(raw, seed), sort_keys=True))
    if trace:
        metrics, rows, server_cpu_us = per_layer(raw, out)
        layer_sum_us = raw["layers"]["layer_sum_us"]
        checks["replay_payloads"] = raw["layers"]["wrong_payloads"] == 0
        checks["layer_sum_le_server_cpu"] = layer_sum_us <= server_cpu_us
        print_breakdown(rows)
        print("server-side in-process layer sum %.3f us/req, server CPU "
              "%.3f us/req" % (layer_sum_us, server_cpu_us))
        print("spans: %s (durations exclude one clock-read pair, %.0f ns)" %
              (os.path.join(out, "spans.csv"),
               raw["layers"]["clock_overhead_ns"]))
    else:
        metrics = end_to_end(raw, out)
        print("%-32s %14.6f %s" % ("failed_share", failed / attempted,
                                   "ratio"))
        print("%-32s %14d %s" % ("accounting_extra_refs",
                                 raw["lookups_delta"] - u["queries"],
                                 "count"))
        print("%-32s %14.6f %s (of %d queries)" % (
            "query_p99_us", u["query_p99_us"], "us", u["queries"]))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6f %s" % (name, value, unit))
    for name, ok in checks.items():
        print("check %-26s %s" % (name, "ok" if ok else "FAILED"))
    return {"correct": all(checks.values()), "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": unit}
                        for n, (v, unit) in metrics.items()}}


def print_breakdown(rows):
    columns = ("client_codec_us", "server_codec_us", "keys_us",
               "facade_self_us", "cache_us", "payload_store_us",
               "server_sum_us", "client_rtt_p50_us", "server_cpu_us_per_req")
    print("%-16s %4s " % ("class", "reqs") +
          " ".join("%13s" % c.replace("_us", "").replace("_per_req", "")
                   for c in columns) + "   (us)")
    for row in rows:
        print("%-16s %4d " % (row["class"], row["wire_requests"]) +
              " ".join("%13.3f" % row[c] for c in columns))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    binaries = build()
    if args.workload != "all":
        print(json.dumps(run_workload(binaries, args.workload, args.seed,
                                      args.seconds, args.trace)))
        return
    results = {w: run_workload(binaries, w, args.seed, args.seconds,
                               args.trace) for w in WORKLOADS}
    print(json.dumps(results))


if __name__ == "__main__":
    main()
