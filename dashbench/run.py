#!/usr/bin/env python3
"""End-to-end benchmark of DASH: three parties over loopback TCP.

    python3 dashbench/run.py --workload tall_stream --seed 1 --seconds 12 --trace 0

Run from the root of a DASH checkout. The first run builds the shipped
binaries (dash_party, dash_partyd) and the benchmark's tool from source
into .bench_build/ (dashbench/CMakeLists.txt); fixtures and reference
results are cached there too, keyed by (seed, shape).

Workloads (all: P=3, masked aggregation, K=4 = intercept + 3, one
thread per party):
  tall_stream  batch dash_party --stream scans of tall DASHPACK slices;
               the kernel and panel I/O do the work, the wire carries
               O(M) bytes (claim C2 at N >= 100k).
  wide_reveal  batch streamed scans of short, very wide slices; the
               O(M) encode/mask/wire/open/finalize path does the work
               (claim C3).
  service_mix  three resident dash_partyd daemons; two clients run a
               closed loop of in-memory jobs, one in four on a fresh
               cohort (Phase-1 cache miss), three in four on hot cohorts
               (cache hit).

--trace 0 measures the end-to-end metrics with nothing traced. --trace 1
runs the traced party harness (timing Transport and PanelSource
decorators around the same protocol code) and isolated calls into each
layer, and reports the per-layer metrics, with a merged Chrome trace
under .bench_build/traces/.

Every run checks its results: every party (daemon) reports the same
result checksum; the checksum matches earlier runs on the same fixture;
the first scan matches a plaintext pooled reference within RTOL; every
service job matches `dash_partyd --simulate-job`. Human-readable lines
come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every result passed the gate.
"""

import argparse
import concurrent.futures
import functools
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "dashbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "dashbench")
CACHE_DIR = os.path.join(BUILD_ROOT, "fixtures")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
RESULT_DIR = os.path.join(BUILD_ROOT, "results")

PARTIES = 3
COVARIATES = 4          # intercept + 3
RTOL = 1e-6             # secure (fixed-point) vs plaintext reference
KEEP_FIXTURES = 2       # cached fixture sets kept per workload

WORKLOADS = {
    "tall_stream": {"kind": "batch", "samples": 50000, "variants": 4000},
    "wide_reveal": {"kind": "batch", "samples": 512, "variants": 200000},
    "service_mix": {"kind": "service", "samples": 512, "variants": 512,
                    "clients": 2, "think_s": 0.1, "hot_cohorts": 3, "miss_every": 4,
                    "setups": 30},
}

# Round keys of tools/protocol_model.yaml that a masked scan or job sends.
ROUNDS = ["phase1_probe", "phase0_samplecount", "phase1_rfactor",
          "phase0b_keyagree", "phase2_masked", "phase4_commit"]

def load_metric_units():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# Layer metrics of one kind of workload only: a service job reads no
# study file, and a dash_party scan has no Phase-1 probe, cohort
# generation or service. They are printed and recorded where they apply
# but left out of the JSON metrics, which hold the same set (the
# per_layer list of BENCHMARK.json) on every workload.
WORKLOAD_ONLY_UNITS = {
    # batch workloads
    "data.open_s": "s", "data.read_s": "s", "data.read_gbps": "GB/s",
    "data.panels": "count", "core.stream_s": "s", "core.io_stall_s": "s",
    # service_mix
    "data.cohort_gen_s": "s", "transport.phase1_probe.send_s": "s",
    "transport.phase1_probe.wait_s": "s", "transport.phase1_probe.bytes": "B",
    "service.queue_p50_s": "s", "service.run_p50_s": "s",
    "service.cache_hit_ratio": "1", "service.job_hit_p50_s": "s",
    "service.job_miss_p50_s": "s", "service.control_rtt_s": "s",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def mix(*parts):
    """Stable 63-bit integer from the parts (inputs are keyed by seed)."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# --- build ------------------------------------------------------------

def build():
    for need in ("src/CMakeLists.txt", "examples/dash_party.cpp",
                 "examples/dash_partyd.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no DASH source tree here (missing {need})")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(min(4, os.cpu_count() or 1)), "--target", "dash_party",
                  "dash_partyd", "dashbench_tool"])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {build_log})")


def binary(name):
    sub = "" if name == "dashbench_tool" else "dash_examples"
    return os.path.join(BUILD_DIR, sub, name)


def tool(*args, timeout=170):
    """Runs dashbench_tool and returns its JSON output."""
    proc = subprocess.run([binary("dashbench_tool")] + [str(a) for a in args],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"dashbench_tool {args[0]} failed: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- processes --------------------------------------------------------

class Proc:
    """A child process whose output lines are drained by threads and
    timestamped (time.monotonic) as they arrive; finish() reaps it with
    os.wait4 for its CPU time and peak RSS."""

    def __init__(self, argv):
        self.launched = time.monotonic()
        self.popen = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE,
                                      stdin=subprocess.DEVNULL)
        self.stdout, self.stderr = [], []
        self.eof = None
        self.cond = threading.Condition()
        self.threads = [
            threading.Thread(target=self._drain,
                             args=(self.popen.stdout, self.stdout, False)),
            threading.Thread(target=self._drain,
                             args=(self.popen.stderr, self.stderr, True)),
        ]
        for t in self.threads:
            t.daemon = True
            t.start()
        self.cpu_s = 0.0
        self.maxrss_mb = 0.0
        self.returncode = None

    def _drain(self, pipe, sink, is_stderr):
        for raw in iter(pipe.readline, b""):
            with self.cond:
                sink.append((time.monotonic(), raw.decode(errors="replace")))
                self.cond.notify_all()
        with self.cond:
            if is_stderr:
                self.eof = time.monotonic()
            self.cond.notify_all()

    def wait_line(self, pattern, deadline):
        """Timestamp of the first stderr line matching pattern."""
        regex = re.compile(pattern)
        with self.cond:
            while True:
                for stamp, line in self.stderr:
                    if regex.search(line):
                        return stamp
                if self.eof is not None:
                    raise BenchError("process exited before readiness: "
                                     + self.text(self.stderr)[-500:])
                left = deadline - time.monotonic()
                if left <= 0:
                    raise BenchError("timed out waiting for readiness")
                self.cond.wait(min(left, 0.5))

    def finish(self, timeout=170):
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.popen.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                self.kill()
                pid, status, usage = os.wait4(self.popen.pid, 0)
                break
            time.sleep(0.002)
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = self.popen.returncode
        for t in self.threads:
            t.join()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        return self.returncode

    def kill(self):
        # os.kill, not Popen.kill: Popen polls first, and a child reaped
        # there would be lost to the os.wait4 that reads its rusage. An
        # unreaped child's pid cannot be reused, so this is safe.
        if self.returncode is None:
            os.kill(self.popen.pid, signal.SIGKILL)

    @staticmethod
    def text(lines):
        return "".join(line for _, line in lines)


def stop_all(procs):
    for p in procs:
        p.kill()
    for p in procs:
        if p.returncode is None:
            p.finish(timeout=10)


def free_ports(count):
    socks, ports = [], []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def cluster_arg(ports):
    return ",".join(f"127.0.0.1:{p}" for p in ports)


# --- fixtures ---------------------------------------------------------

def fixture(workload, shape, seed):
    """Generates (or reuses) the per-party DASHPACK slices and the
    plaintext pooled reference for (seed, shape)."""
    key = f"{workload}-s{seed}-n{shape['samples']}-m{shape['variants']}"
    folder = os.path.join(CACHE_DIR, key)
    meta_path = os.path.join(folder, "fixture.json")
    if not os.path.exists(meta_path):
        shutil.rmtree(folder, ignore_errors=True)
        os.makedirs(folder)
        studies = [os.path.join(folder, f"party{p}.dpk")
                   for p in range(PARTIES)]
        start = time.monotonic()
        gens = [subprocess.Popen(
            [binary("dashbench_tool"), "gen", "--out", studies[p],
             "--seed", str(seed), "--party", str(p),
             "--samples", str(shape["samples"]),
             "--variants", str(shape["variants"]),
             "--covariates", str(COVARIATES)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for p in range(PARTIES)]
        fingerprints = []
        for g in gens:
            out, err = g.communicate(timeout=170)
            if g.returncode != 0:
                raise BenchError(f"fixture generation failed: {err.strip()}")
            fingerprints.append(json.loads(out)["fingerprint"])
        ref = tool("reference", "--out", os.path.join(folder, "ref.bin"),
                   *sum((["--study", s] for s in studies), []))
        meta = {"studies": studies, "fingerprints": fingerprints,
                "reference_checksum": ref["checksum"],
                "gen_s": time.monotonic() - start,
                "bytes": sum(os.path.getsize(s) for s in studies)}
        with open(meta_path + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(meta_path + ".tmp", meta_path)
        prune_fixtures(workload, keep=key)
    with open(meta_path) as f:
        meta = json.load(f)
    meta["folder"] = folder
    return meta


def prune_fixtures(workload, keep):
    sets = sorted((e for e in os.listdir(CACHE_DIR)
                   if e.startswith(workload + "-") and e != keep),
                  key=lambda e: os.path.getmtime(os.path.join(CACHE_DIR, e)))
    for old in sets[:max(0, len(sets) - (KEEP_FIXTURES - 1))]:
        shutil.rmtree(os.path.join(CACHE_DIR, old), ignore_errors=True)


def warm_page_cache(paths):
    for path in paths:
        with open(path, "rb") as f:
            while f.read(1 << 24):
                pass


def remember_checksum(folder, name, checksum):
    """The checksum a fixture produced on earlier runs (first run: this
    one); a different value on a later run is a gate failure."""
    path = os.path.join(folder, f"checksum-{name}.txt")
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip()
    with open(path, "w") as f:
        f.write(checksum)
    return checksum


# --- correctness gate -------------------------------------------------

CHECKSUM_RE = re.compile(r"^result checksum\s+([0-9a-f]{16})", re.M)
WIRE_RE = re.compile(r"^wire traffic\s+(\d+) B out", re.M)


def gate_scan(outputs, expected):
    """Gate for one batch scan. outputs: per party (returncode, stdout).
    Returns (ok, checksum, reason)."""
    checksums = []
    for party, (code, text) in enumerate(outputs):
        found = CHECKSUM_RE.search(text)
        if code != 0 or found is None:
            return False, None, f"party {party} failed (exit {code})"
        checksums.append(found.group(1))
    if len(set(checksums)) != 1:
        return False, None, f"parties disagree: {checksums}"
    if expected is not None and checksums[0] != expected:
        return False, checksums[0], (f"checksum {checksums[0]} != "
                                     f"expected {expected}")
    return True, checksums[0], ""


def gate_job(statuses, expected):
    """Gate for one service job. statuses: per daemon STATUS fields;
    expected: the --simulate-job checksum. Returns (ok, reason)."""
    states = [s.get("state") for s in statuses]
    if states != ["done"] * len(statuses):
        return False, f"states {states}"
    sums = {s.get("checksum") for s in statuses}
    if len(sums) != 1:
        return False, f"daemons disagree: {sorted(sums)}"
    if expected is not None and sums != {expected}:
        return False, f"checksum {sums.pop()} != simulated {expected}"
    return True, ""


# --- batch workloads --------------------------------------------------

def launch_scan(meta, argv_for_party):
    """Starts one scan (a process per party) and waits for it. Returns
    the per-scan record; raises only on harness trouble."""
    ports = free_ports(PARTIES)
    procs = []
    try:
        for p in range(PARTIES):
            procs.append(Proc(argv_for_party(p, cluster_arg(ports),
                                             meta["studies"][p])))
        deadline = time.monotonic() + 170
        ready = [pr.wait_line(r"mesh up", deadline) for pr in procs]
        for pr in procs:
            pr.finish(timeout=max(1, deadline - time.monotonic()))
    finally:
        stop_all(procs)
    launched = procs[0].launched
    end = max(pr.eof for pr in procs)
    return {
        "setup_s": max(ready) - launched,
        "scan_s": end - max(ready),
        "job_s": end - launched,
        "cpu_s": sum(pr.cpu_s for pr in procs),
        "rss_mb": max(pr.maxrss_mb for pr in procs),
        "outputs": [(pr.returncode, Proc.text(pr.stdout)) for pr in procs],
        "stderr": [Proc.text(pr.stderr) for pr in procs],
    }


def dash_party_argv(out_csv=None):
    def argv(party, cluster, study):
        cmd = [binary("dash_party"), "--party", str(party), "--cluster",
               cluster, "--stream", study]
        if out_csv is not None and party == 0:
            cmd += ["--out", out_csv]
        return cmd
    return argv


def harness_argv(traced, spans_dir=None, job=None):
    """Argv of the traced party harness: a streamed scan of the party's
    study, or (job = "M N K SEED") a cold and a warm service-shaped job."""
    def argv(party, cluster, study):
        cmd = [binary("dashbench_tool"), "party", "--party", str(party),
               "--cluster", cluster, "--trace", "1" if traced else "0"]
        cmd += ["--job", job] if job is not None else ["--study", study]
        if spans_dir is not None:
            cmd += ["--spans", os.path.join(spans_dir, f"party{party}.json")]
        return cmd
    return argv


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def verified_first_scan(meta, tally):
    """The first scan of a run: party 0 writes its result, which must
    match the plaintext reference; it also warms every cache."""
    csv_path = os.path.join(meta["folder"], "party0_result.csv")
    scan = launch_scan(meta, dash_party_argv(out_csv=csv_path))
    ok, checksum, reason = gate_scan(scan["outputs"], None)
    if ok:
        check = tool("check", "--ref", os.path.join(meta["folder"], "ref.bin"),
                     "--csv", csv_path, "--rtol", RTOL)
        log(f"reference check: max rel err {check['max_rel_err']:.3g} over "
            f"{check['rows']} variants (rtol {RTOL:g})")
        if not check["ok"]:
            ok, reason = False, f"reference mismatch {check}"
    if ok:
        expected = remember_checksum(meta["folder"], "scan", checksum)
        if expected != checksum:
            ok, reason = False, f"checksum {checksum} != earlier {expected}"
    if os.path.exists(csv_path):
        os.remove(csv_path)
    tally.record(ok, reason)
    if not ok:
        log("gate: " + reason + "\n" + "".join(scan["stderr"])[-800:])
    return checksum if ok else None


def run_batch(workload, shape, seed, seconds, traced):
    meta = fixture(workload, shape, seed)
    warm_page_cache(meta["studies"])
    log(f"fixture: {PARTIES} x {shape['samples']} samples x "
        f"{shape['variants']} variants, {meta['bytes'] / 1e6:.1f} MB, "
        f"generated in {meta['gen_s']:.2f} s (not timed), "
        f"fingerprints {','.join(meta['fingerprints'])}")
    tally = Tally()
    expected = verified_first_scan(meta, tally)
    if traced:
        return tally, batch_layers(workload, meta, seconds, expected, tally)

    scans = []
    start = time.monotonic()
    while (time.monotonic() - start < seconds or len(scans) < 5) and \
            time.monotonic() - start < 120:
        scan = launch_scan(meta, dash_party_argv())
        ok, _, reason = gate_scan(scan["outputs"], expected)
        tally.record(ok and expected is not None, reason or "no reference")
        if ok:
            wire = [int(WIRE_RE.search(t).group(1)) for _, t in scan["outputs"]]
            scan["wire_bytes"] = max(wire)
            scans.append(scan)
    return tally, summarize_batch(scans, time.monotonic() - start)


def summarize_batch(scans, elapsed):
    jobs = [s["job_s"] for s in scans]
    return {
        "setup_s": (median([s["setup_s"] for s in scans]), len(scans)),
        "scan_s": (median([s["scan_s"] for s in scans]), len(scans)),
        "job_p50_s": (median(jobs), len(jobs)),
        "job_p90_s": (percentile(jobs, 90), len(jobs)),
        "jobs_per_s": (len(scans) / elapsed if elapsed > 0 else 0.0,
                       len(scans)),
        "cpu_s": (median([s["cpu_s"] for s in scans]), len(scans)),
        "peak_rss_mb": (max([s["rss_mb"] for s in scans], default=0.0),
                        len(scans)),
        "wire_bytes": (median([s["wire_bytes"] for s in scans]), len(scans)),
    }


def merge_spans(spans_dir, out_path):
    """Merges the parties' span files into one Chrome trace-event file."""
    events = []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name)) as f:
            events.extend(json.load(f))
    t0 = min((e["ts"] for e in events), default=0.0)
    for e in events:
        e["ts"] -= t0
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def harness_layer_metrics(reports):
    """Per-layer transport metrics from the traced harness's per-party
    reports of one scan: the largest value over parties."""
    m = {"transport.connect_s": max(r["connect_s"] for r in reports),
         "transport.wait_max_peer_s": max(r["wait_max_peer_s"]
                                          for r in reports)}
    local = []
    for r in reports:
        rounds = r["rounds"]
        busy = sum(v["send_s"] + v["wait_s"] for v in rounds.values())
        local.append(r["scan_s"] - busy)
    m["transport.local_s"] = max(local)
    for key in ROUNDS:
        if not any(key in r["rounds"] for r in reports):
            continue  # a round this scan does not run
        for field in ("send_s", "wait_s", "bytes"):
            m[f"transport.{key}.{field}"] = max(
                r["rounds"].get(key, {}).get(field, 0) for r in reports)
    return m


def traced_scans(launch, seconds, expected, tally, label):
    """Alternates traced and untraced harness scans for `seconds`.
    Returns (median per-layer metrics of the traced scans, overhead)."""
    traced, plain = [], []
    spans_dir = os.path.join(TRACE_DIR, "spans")
    start = time.monotonic()
    while (time.monotonic() - start < seconds or len(traced) < 3) and \
            time.monotonic() - start < 120:
        for with_trace in (True, False):
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
            scan = launch(with_trace, spans_dir if with_trace else None)
            reports = []
            ok = all(code == 0 for code, _ in scan["outputs"])
            if ok:
                reports = [json.loads(t.strip().splitlines()[-1])
                           for _, t in scan["outputs"]]
                sums = {tuple(r["checksums"]) for r in reports}
                ok = len(sums) == 1 and (expected is None or
                                         sums == {tuple(expected)})
            tally.record(ok, f"traced harness: {scan['stderr']}"[:500])
            if not ok:
                continue
            if with_trace:
                traced.append((scan, harness_layer_metrics(reports)))
                merge_spans(spans_dir, os.path.join(TRACE_DIR,
                                                    f"{label}.json"))
            else:
                plain.append(scan)
    shutil.rmtree(spans_dir, ignore_errors=True)
    per_layer = {}
    for key in traced[0][1] if traced else []:
        per_layer[key] = median([m[key] for _, m in traced])
    traced_scan = median([s["scan_s"] for s, _ in traced])
    plain_scan = median([s["scan_s"] for s in plain])
    per_layer["trace.overhead_frac"] = (
        (traced_scan - plain_scan) / plain_scan if plain_scan > 0 else 0.0)
    return per_layer


def batch_layers(workload, meta, seconds, expected, tally):
    def launch(with_trace, spans_dir):
        return launch_scan(meta, harness_argv(with_trace, spans_dir))
    metrics = traced_scans(launch, seconds * 0.7, [expected] if expected
                           else None, tally, workload)
    metrics.update(tool("layers", "--study", meta["studies"][0],
                        "--parties", PARTIES, "--reps", 3))
    return metrics


# --- service workload -------------------------------------------------

class Control:
    """One persistent connection to a daemon's control port."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def ask(self, line):
        self.sock.sendall((line + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise BenchError("control connection closed")
            self.buf += chunk
        reply, self.buf = self.buf.split(b"\n", 1)
        return reply.decode().strip()

    def close(self):
        self.sock.close()


def parse_status(reply):
    fields = {}
    if not reply.startswith("OK "):
        return {"state": "error", "error": reply}
    for token in reply[3:].split():
        if "=" in token:
            k, v = token.split("=", 1)
            fields[k] = v
    return fields


def start_daemons():
    ports = free_ports(2 * PARTIES)
    mesh, control = ports[:PARTIES], ports[PARTIES:]
    procs = []
    try:
        for p in range(PARTIES):
            procs.append(Proc([binary("dash_partyd"), "--party", str(p),
                               "--cluster", cluster_arg(mesh),
                               "--control-port", str(control[p])]))
        deadline = time.monotonic() + 60
        ready = [pr.wait_line(r"mesh up; control listening", deadline)
                 for pr in procs]
    except BaseException:
        stop_all(procs)
        raise
    return procs, control, max(ready) - procs[0].launched


def stop_daemons(procs, control):
    for port in control:
        try:
            c = Control(port)
            c.ask("SHUTDOWN")
            c.close()
        except (OSError, BenchError):
            pass
    for pr in procs:
        pr.finish(timeout=30)
    stop_all(procs)


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class JobMix:
    """The seeded closed-loop job stream: job i is a fresh cohort (cache
    miss) with probability 1/miss_every, else one of the hot cohorts."""

    def __init__(self, shape, seed):
        self.shape = shape
        self.seed = seed
        self.rng = random.Random(mix("mix", seed))
        self.lock = threading.Lock()
        self.next_id = 1

    def hot(self, h):
        return f"hot{h}", mix("hot", self.seed, h) % (1 << 31)

    def new_id(self):
        with self.lock:
            self.next_id += 1
            return self.next_id - 1

    def take(self):
        with self.lock:
            job_id = self.next_id
            self.next_id += 1
            if self.rng.randrange(self.shape["miss_every"]) == 0:
                cohort = (f"cold{job_id}",
                          mix("cold", self.seed, job_id) % (1 << 31))
            else:
                cohort = self.hot(self.rng.randrange(
                    self.shape["hot_cohorts"]))
        return job_id, cohort

    def submit_args(self, job_id, cohort):
        key, data_seed = cohort
        return (f"{job_id} {key} {self.shape['variants']} "
                f"{self.shape['samples']} {COVARIATES} {data_seed} masked 0")


def run_job(controls, mix_, job_id, cohort):
    """SUBMIT to every daemon, then poll each until it is settled.
    Returns (latency_s, per-daemon STATUS fields)."""
    line = "SUBMIT " + mix_.submit_args(job_id, cohort)
    start = time.monotonic()
    replies = [c.ask(line) for c in controls]
    if not all(r.startswith("OK") for r in replies):
        return time.monotonic() - start, [{"state": "rejected",
                                           "error": r} for r in replies]
    statuses = []
    for c in controls:
        while True:
            fields = parse_status(c.ask(f"STATUS {job_id}"))
            if fields.get("state") in ("done", "failed", "cancelled",
                                       "error"):
                break
            time.sleep(0.002)
        statuses.append(fields)
    return time.monotonic() - start, statuses


def simulate_checksums(mix_, specs):
    """Reference checksums from dash_partyd --simulate-job, cached by
    the built sources and data seed (the checksum does not depend on job
    id or cohort key), so every build is checked against its own
    simulator."""
    cache_path = os.path.join(CACHE_DIR,
                              f"simulate-{source_digest()}.json")
    cache = {}
    if os.path.exists(cache_path):
        with open(cache_path) as f:
            cache = json.load(f)
    shape_key = f"{mix_.shape['variants']}x{mix_.shape['samples']}x{COVARIATES}"
    todo = sorted({ds for _, ds in specs
                   if f"{shape_key}:{ds}" not in cache})

    def simulate(ds):
        proc = subprocess.run(
            [binary("dash_partyd"), "--simulate-job",
             mix_.submit_args(1, ("ref", ds)), "--parties", str(PARTIES)],
            capture_output=True, text=True, timeout=120)
        found = re.search(r"checksum (\d+)", proc.stdout)
        if proc.returncode != 0 or not found:
            raise BenchError(f"--simulate-job failed: {proc.stderr.strip()}")
        return found.group(1)

    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for ds, checksum in zip(todo, pool.map(simulate, todo)):
            cache[f"{shape_key}:{ds}"] = checksum
    os.makedirs(CACHE_DIR, exist_ok=True)
    with open(cache_path + ".tmp", "w") as f:
        json.dump(cache, f)
    os.replace(cache_path + ".tmp", cache_path)
    return {ds: cache[f"{shape_key}:{ds}"] for _, ds in specs}


def closed_loop(procs, control, mix_, seconds):
    """The measured window: clients x closed loop for `seconds`."""
    jobs = []
    jobs_lock = threading.Lock()
    errors = []
    window_end = time.monotonic() + seconds

    def client():
        try:
            controls = [Control(port) for port in control]
            while time.monotonic() < window_end:
                job_id, cohort = mix_.take()
                latency, statuses = run_job(controls, mix_, job_id, cohort)
                with jobs_lock:
                    jobs.append((job_id, cohort, latency, statuses))
                time.sleep(mix_.shape["think_s"])
            for c in controls:
                c.close()
        except (OSError, BenchError) as err:
            errors.append(err)

    cpu0 = sum(proc_cpu_s(p.popen.pid) for p in procs)
    start = time.monotonic()
    threads = [threading.Thread(target=client)
               for _ in range(mix_.shape["clients"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - start
    cpu = sum(proc_cpu_s(p.popen.pid) for p in procs) - cpu0
    if errors:
        raise BenchError(f"client failed: {errors[0]}")
    return jobs, elapsed, cpu


def run_service(workload, shape, seed, seconds, traced):
    mix_ = JobMix(shape, seed)
    tally = Tally()
    setups = []
    # Setup-only launches: start the trio, then shut it down.
    for _ in range(shape["setups"] - 1):
        procs, control, setup = start_daemons()
        setups.append(setup)
        stop_daemons(procs, control)
    procs, control, setup = start_daemons()
    setups.append(setup)
    try:
        # Warm-up: one job per hot cohort fills every daemon's cache.
        controls = [Control(port) for port in control]
        warm = []
        for h in range(shape["hot_cohorts"]):
            job_id, cohort = mix_.new_id(), mix_.hot(h)
            _, statuses = run_job(controls, mix_, job_id, cohort)
            warm.append((job_id, cohort, None, statuses))
        for c in controls:
            c.close()
        window = seconds * (0.6 if traced else 1.0)
        jobs, elapsed, cpu = closed_loop(procs, control, mix_, window)
        rtt = []
        if traced:
            c = Control(control[0])
            for _ in range(50):
                t = time.monotonic()
                c.ask("PING")
                rtt.append(time.monotonic() - t)
            c.close()
        rss = max(proc_hwm_mb(p.popen.pid) for p in procs)
    finally:
        stop_daemons(procs, control)

    expected = simulate_checksums(mix_, [c for _, c, _, _ in warm + jobs])
    good = []
    for job_id, cohort, latency, statuses in warm + jobs:
        ok, reason = gate_job(statuses, expected[cohort[1]])
        tally.record(ok, f"job {job_id}: {reason}")
        if ok and latency is not None:  # warm-up jobs are not timed
            good.append((latency, statuses))
    # The daemons' result on the first hot cohort must also match what
    # they produced on earlier runs of this seed.
    first_hot = expected[mix_.hot(0)[1]]
    if gate_job(warm[0][3], first_hot)[0]:
        got = warm[0][3][0]["checksum"]
        earlier = remember_checksum(CACHE_DIR, f"service-s{seed}", got)
        tally.record(earlier == got,
                     f"hot cohort checksum {got} != earlier {earlier}")

    latencies = [lat for lat, _ in good]
    run_s = [max(float(s["run_ms"]) for s in st) / 1e3 for _, st in good]
    if traced:
        hot0 = format(int(first_hot), "016x")
        return tally, service_layers(shape, seed, seconds, good, rtt, tally,
                                     [hot0, hot0])
    return tally, {
        "setup_s": (median(setups), len(setups)),
        "scan_s": (median(run_s), len(run_s)),
        "job_p50_s": (median(latencies), len(latencies)),
        "job_p90_s": (percentile(latencies, 90), len(latencies)),
        "jobs_per_s": (len(jobs) / elapsed, len(jobs)),
        "cpu_s": (cpu / max(1, len(jobs)), len(jobs)),
        "peak_rss_mb": (rss, PARTIES),
        "wire_bytes": (median([max(int(s["bytes"]) for s in st)
                               for _, st in good]), len(good)),
    }


def service_layers(shape, seed, seconds, good, rtt, tally, expected):
    hits = [lat for lat, st in good if all(s["cache_hit"] == "1" for s in st)]
    misses = [lat for lat, st in good
              if not all(s["cache_hit"] == "1" for s in st)]
    metrics = {
        "service.queue_p50_s": median(
            [max(float(s["queue_ms"]) for s in st) / 1e3 for _, st in good]),
        "service.run_p50_s": median(
            [max(float(s["run_ms"]) for s in st) / 1e3 for _, st in good]),
        "service.cache_hit_ratio": len(hits) / max(1, len(good)),
        "service.job_hit_p50_s": median(hits),
        "service.job_miss_p50_s": median(misses),
        "service.control_rtt_s": median(rtt),
    }
    job = f"{shape['variants']} {shape['samples']} {COVARIATES} " \
          f"{mix('hot', seed, 0) % (1 << 31)}"

    def launch(with_trace, spans_dir):
        return launch_scan({"studies": [None] * PARTIES},
                           harness_argv(with_trace, spans_dir, job))

    metrics.update(traced_scans(launch, seconds * 0.2, expected, tally,
                                "service_mix"))
    metrics.update(tool("layers", "--job", job, "--parties", PARTIES,
                        "--reps", 5))
    return metrics


# --- main -------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def source_digest():
    """sha256 over the sources the benchmark builds, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "dashbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as src:
                h.update(src.read())
    return h.hexdigest()[:16]


def environment(fixture_info):
    env = tool("env")
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    env.update({"nproc_os": os.cpu_count(), "network": "loopback",
                "commit": commit, "source_sha256": source_digest(),
                "fixture": fixture_info})
    return env


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        e2e_units, layer_units = load_metric_units()
        build()
        os.makedirs(CACHE_DIR, exist_ok=True)
        shape = WORKLOADS[args.workload]
        runner = run_batch if shape["kind"] == "batch" else run_service
        tally, measured = runner(args.workload, shape, args.seed,
                                 args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        print(f"dashbench: {err}", file=sys.stderr)
        return 1

    if shape["kind"] == "batch":
        key = f"{args.workload}-s{args.seed}-n{shape['samples']}-" \
              f"m{shape['variants']}"
        with open(os.path.join(CACHE_DIR, key, "fixture.json")) as f:
            info = json.load(f)
        fixture_info = {"fingerprints": info["fingerprints"],
                        "reference_checksum": info["reference_checksum"],
                        "gen_s": info["gen_s"]}
    else:
        fixture_info = {"job_shape": f"{shape['variants']}x{shape['samples']}"
                                     f"x{COVARIATES}", "seed": args.seed}
    env = environment(fixture_info)
    log("env: " + json.dumps(env))

    metrics = {}
    if args.trace:
        for name, unit in layer_units.items():
            if name not in measured:
                print(f"dashbench: traced run did not measure {name}",
                      file=sys.stderr)
                return 1
            metrics[name] = {"value": float(measured[name]), "unit": unit}
            log(f"{name:36s} {float(measured[name]):14.6g} {unit}")
        for name, unit in WORKLOAD_ONLY_UNITS.items():
            if name in measured:
                log(f"{name:36s} {float(measured[name]):14.6g} {unit}"
                    "  (this workload only)")
    else:
        measured["ok_frac"] = (1.0 - tally.failed / max(1, tally.attempted),
                               tally.attempted)
        for name, unit in e2e_units.items():
            value, samples = measured[name]
            metrics[name] = {"value": float(value), "unit": unit}
            log(f"{name:12s} {value:14.6g} {unit:5s} (n={samples})")
        log(f"fail_frac    {tally.failed / max(1, tally.attempted):14.6g} "
            f"1     (failed {tally.failed} of {tally.attempted})")
    for reason in tally.reasons:
        log("gate failure: " + reason)
    correct = tally.failed == 0 and tally.attempted > 0
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    os.makedirs(RESULT_DIR, exist_ok=True)
    with open(os.path.join(RESULT_DIR, f"{args.workload}-s{args.seed}-"
                           f"t{args.trace}.json"), "w") as f:
        json.dump({"env": env, "args": vars(args), **result,
                   "layers": measured if args.trace else {}}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
