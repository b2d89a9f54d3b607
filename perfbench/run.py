#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of an mdqa checkout:

    python3 perfbench/run.py --workload assess-hospital --seed 1 --seconds 20 --trace 0

It builds mdqa and the companion programs perfbench/ocaml/pb.exe and
cal.exe with dune, generates the workload's inputs from --seed, runs
operations on the real `mdqa` binary for --seconds, checks every output,
and prints one JSON object as its last line.  With --trace 0 that object
holds the end-to-end metrics, every timing scaled to a reference host
speed by runs of cal.exe; with --trace 1 it holds the per-layer metrics of a separate traced
in-process run (which also writes .perfbench/<workload>/trace.json, a
Chrome trace-event file, and layers.txt).  Metric names and units come
from BENCHMARK.json; perfbench/README.md explains each of them.
"""

import argparse
import glob
import json
import math
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

WORKLOADS = ("assess-hospital", "egd-merge", "serve-hospital")
MDQA = os.path.join("_build", "default", "bin", "mdqa_cli.exe")
PB = os.path.join("_build", "default", "perfbench", "ocaml", "pb.exe")
CAL = os.path.join("_build", "default", "perfbench", "ocaml", "cal.exe")
WORK = ".perfbench"
# Every end-to-end timing is scaled to the host speed at which the
# calibration program (ocaml/cal.ml) takes this long: its typical time
# on the 2.1 GHz Xeon host the benchmark was tuned on.
CAL_REF_S = 0.30
# serve-hospital's load runs in slices this long, each followed by a
# calibration run.
SLICE_S = 1.5
# Set-up is repeated within a run and its median reported.
SETUP_REPEATS = {"assess-hospital": 7, "egd-merge": 7, "serve-hospital": 5}
# A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150
# Reported in place of a latency that failed operations made infinite.
MISSING = 1e9


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for path in ("BENCHMARK.json", "dune-project", "lib",
                 os.path.join("bin", "mdqa_cli.ml"),
                 os.path.join("perfbench", "ocaml", "pb.ml"),
                 os.path.join("perfbench", "ocaml", "cal.ml")):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of an mdqa checkout", 2)
    env = dict(os.environ)
    if shutil.which("dune") is None:
        # not on PATH: use the opam switch's toolchain (dune, compiler, findlib)
        switches = [os.path.join(os.environ.get("OPAM_SWITCH_PREFIX", "/nonexistent"), "bin"),
                    *sorted(glob.glob(os.path.expanduser("~/.opam/*/bin")))]
        bindir = next((b for b in switches if os.path.exists(os.path.join(b, "dune"))), None)
        if bindir is None:
            fail("dune not found on PATH or in an opam switch", 2)
        env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "--cache", "disabled",
         "./bin/mdqa_cli.exe", "./perfbench/ocaml/pb.exe", "./perfbench/ocaml/cal.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=840, env=env)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def bytes_written(pid):
    """Bytes the process has passed to write(2) so far (Linux /proc accounting)."""
    with open(f"/proc/{pid}/io") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class Child:
    """A started program whose end is measured: wall time from start to
    exit, exit code, peak resident memory and bytes written."""

    def __init__(self, argv, out_path):
        self.out_path = out_path
        self._out = open(out_path, "wb")
        self._err = open(out_path + ".err", "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self._out, stderr=self._err)
        self.pid = self.proc.pid

    def wait(self, timeout=CHILD_TIMEOUT_S):
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            # wait without reaping, so /proc still has the io accounting
            os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
            self.seconds = time.perf_counter() - self.start
            self.wchar = bytes_written(self.pid)
            _, status, usage = os.wait4(self.pid, 0)
        finally:
            watchdog.cancel()
            self._out.close()
            self._err.close()
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self

    def output(self):
        with open(self.out_path, encoding="utf-8", errors="replace") as f:
            return f.read()


def run(argv, **kw):
    return subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, **kw)


def pb(*args):
    r = run([PB, *map(str, args)])
    if r.returncode != 0:
        fail(f"pb {' '.join(map(str, args))} failed: "
             + r.stderr.decode(errors="replace"))
    return r.stdout.decode(errors="replace")


def calibrate():
    """Wall time of one run of the calibration program."""
    t0 = time.perf_counter()
    r = run([CAL])
    dt = time.perf_counter() - t0
    if r.returncode != 0:
        fail("calibration program failed: " + r.stderr.decode(errors="replace"))
    return dt


def scaled(seconds, cal_before, cal_after):
    """A wall time scaled to the reference speed by the calibration runs
    on either side of it."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2)


class Scale:
    """Scales each timed step by calibration runs on either side of it:
    one when created, then one after every step."""

    def __init__(self):
        self.last = calibrate()

    def __call__(self, seconds):
        before, self.last = self.last, calibrate()
        return scaled(seconds, before, self.last)


def generate(workload, seed, d, repeats):
    """Write the inputs `repeats` times and return the median scaled
    time, then write the reference answers (untimed)."""
    scale, times = Scale(), []
    for _ in range(repeats):
        t0 = time.perf_counter()
        pb("gen", workload, seed, d)
        times.append(scale(time.perf_counter() - t0))
    pb("ref", workload, seed, d)
    return stats.median(times)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# --- output checks ----------------------------------------------------------

def assess_ok(expected, child):
    out = child.output()
    return (child.code == 0 and expected["qv_table"] in out
            and expected["answers"] in out)


def table_rows(text):
    """Data rows of the tables `mdqa chase` prints."""
    lines = text.splitlines()
    return (sum(1 for l in lines if l.startswith("|"))
            - sum(1 for l in lines if l.startswith("+=")))


def egd_ok(expected, child, store):
    """Saturated, exact null/merge/fact counts, a clean store, and a resume
    that reproduces the fixpoint's tables."""
    out = child.output()
    m = re.search(r"nulls: (\d+)  egd merges: (\d+)", out)
    if (child.code != 0 or not out.startswith("outcome: saturated\n") or m is None
            or int(m.group(1)) != expected["nulls"]
            or int(m.group(2)) != expected["merges"]
            or table_rows(out) != expected["facts"]):
        return False
    verify = run([MDQA, "store", "verify", store])
    if verify.returncode != 0 or b"status: clean" not in verify.stdout:
        return False
    resume = run([MDQA, "resume", store])
    return (resume.returncode == 0
            and resume.stdout.decode().splitlines()[2:] == out.splitlines()[2:])


# --- CLI workloads ----------------------------------------------------------

def cli_workload(workload, seed, seconds, d):
    setup = generate(workload, seed, d, SETUP_REPEATS[workload])
    expected = load_json(os.path.join(d, "expected.json"))

    def operation(i):
        out = os.path.join(d, "out.txt")
        if workload == "assess-hospital":
            child = Child([MDQA, "context", os.path.join(d, "hospital.mdq")], out).wait()
            return child, assess_ok(expected, child)
        store_dir = os.path.join(d, f"store-{i}")
        os.mkdir(store_dir)
        store = os.path.join(store_dir, "store")
        child = Child([MDQA, "chase", os.path.join(d, "merge.dl"),
                       "--checkpoint", store], out).wait()
        ok = egd_ok(expected, child, store)
        shutil.rmtree(store_dir)
        return child, ok

    operation(0)  # warm-up: page cache, binary loaded; not counted
    ops, rss, wchar, busy = [], [], [], 0.0
    scale = Scale()
    end = time.perf_counter() + seconds
    while not ops or time.perf_counter() < end:
        child, ok = operation(len(ops) + 1)
        op_s = scale(child.seconds)
        busy += op_s
        ops.append((op_s, ok))
        rss.append(child.rss_mb)
        wchar.append(child.wchar)
    s = stats.summarize(ops)
    return s, {
        "setup_s": setup,
        "op_p50_s": s["p50"],
        "op_tail_s": s["tail"],
        "throughput_rps": (s["attempted"] - s["failed"]) / busy,
        "peak_rss_mb": stats.median(rss),
        "bytes_written_per_op": stats.median(wchar),
    }


# --- serve-hospital ---------------------------------------------------------

def send(sock_path, request):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(60)
        s.connect(sock_path)
        s.sendall(request + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


class Server:
    """`mdqa serve FILE.dl --socket S --store STORE` at its defaults, from
    spawn until it answers a ping."""

    def __init__(self, d, k):
        self.sock = os.path.join(d, "sock")
        if os.path.exists(self.sock):
            os.remove(self.sock)
        store_dir = os.path.join(d, f"store-{k}")
        os.mkdir(store_dir)
        self.child = Child([MDQA, "serve", os.path.join(d, "hospital.dl"),
                            "--socket", self.sock,
                            "--store", os.path.join(store_dir, "store")],
                           os.path.join(d, f"serve-{k}.log"))
        deadline = self.child.start + CHILD_TIMEOUT_S
        while True:
            if self.child.proc.poll() is not None:
                fail("mdqa serve exited before answering a ping")
            if time.perf_counter() > deadline:
                self.stop()
                fail("mdqa serve did not answer a ping")
            try:
                if send(self.sock, b'{"kind":"ping"}').get("status") == "complete":
                    break
            except (OSError, ValueError):
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - self.child.start

    def stop(self):
        """Drain with SIGTERM; returns the finished Child."""
        self.child.proc.send_signal(signal.SIGTERM)
        return self.child.wait(timeout=60)


def closed_loop(server, d, seconds):
    """Closed-loop load for `seconds`, in slices between calibration runs.
    Returns each request's (scaled latency, ok), the scaled time of the
    slices and the client's retries."""
    out = os.path.join(d, "load.json")
    r = run([PB, "load", server.sock, d, str(seconds), str(SLICE_S), CAL, out])
    if r.returncode != 0:
        fail("load generator failed: " + r.stderr.decode(errors="replace"))
    result = load_json(out)
    cal = result["cal"]
    factor = [scaled(1.0, cal[k], cal[k + 1]) for k in range(len(result["slices"]))]
    ops = [(dt * factor[k], ok) for k, _, dt, ok in result["ops"]]
    busy = sum(s * f for s, f in zip(result["slices"], factor))
    return ops, busy, result["retries"]


def serve_workload(seed, seconds, d):
    pb("gen", "serve-hospital", seed, d)
    pb("ref", "serve-hospital", seed, d)
    setups, server = [], None
    try:
        scale = Scale()
        for k in range(SETUP_REPEATS["serve-hospital"]):
            if server is not None:
                server.stop()
                server = None
            server = Server(d, k)
            setups.append(scale(server.setup_s))
        before = bytes_written(server.child.pid)
        ops, busy, _ = closed_loop(server, d, seconds)
        written = bytes_written(server.child.pid) - before
    finally:
        finished = server.stop() if server is not None else None
    s = stats.summarize(ops)
    return s, {
        "setup_s": stats.median(setups),
        "op_p50_s": s["p50"],
        "op_tail_s": s["tail"],
        "throughput_rps": (s["attempted"] - s["failed"]) / busy,
        "peak_rss_mb": finished.rss_mb,
        "bytes_written_per_op": written / max(1, s["attempted"]),
    }


def scrape(server):
    """Latency quantiles and shed count from the live server's registry."""
    text = send(server.sock, b'{"kind":"metrics"}')["exposition"]
    buckets, shed = [], 0
    for line in text.splitlines():
        m = re.match(r'mdqa_server_request_seconds_bucket\{le="([^"]+)"\} (\d+)', line)
        if m and m.group(1) != "+Inf":
            buckets.append((float(m.group(1)), int(m.group(2))))
        m = re.match(r"mdqa_server_shed_total(\{[^}]*\})? (\d+)", line)
        if m:
            shed += int(m.group(2))
    buckets.sort()
    return {
        "server.request_p50_s": stats.histogram_quantile(buckets, 0.50),
        "server.request_p99_s": stats.histogram_quantile(buckets, 0.99),
        "server.shed": shed,
    }


# --- traced run -------------------------------------------------------------

def lib_lines():
    n = 0
    for root, _, files in os.walk("lib"):
        for name in files:
            if name.endswith((".ml", ".mli")):
                with open(os.path.join(root, name), "rb") as f:
                    n += f.read().count(b"\n")
    return n


def traced(workload, seed, seconds, d):
    extra, attempted, failed = {}, 0, 0
    if workload == "serve-hospital":
        # half the time on the live server for its own latency histogram,
        # half in process
        pb("gen", workload, seed, d)
        pb("ref", workload, seed, d)
        server = Server(d, 0)
        try:
            ops, _, retries = closed_loop(server, d, seconds / 2)
            extra = scrape(server)
        finally:
            server.stop()
        extra["client.retries"] = retries
        s = stats.summarize(ops)
        attempted, failed = s["attempted"], s["failed"]
        seconds = seconds / 2
    else:
        generate(workload, seed, d, 1)
    out = os.path.join(d, "trace-metrics.json")
    print(pb("trace", workload, seed, d, seconds, out), end="")
    result = load_json(out)
    metrics = dict(result["metrics"])
    metrics.update(extra)
    metrics["repo.lib_loc"] = lib_lines()
    return (attempted + result["attempted"], failed + result["failed"], metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    spec = load_json("BENCHMARK.json")
    d = os.path.join(WORK, a.workload)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    if a.trace:
        attempted, failed, values = traced(a.workload, a.seed, a.seconds, d)
        names = spec["per_layer"]
        print(f"perfbench: workload={a.workload} seed={a.seed} traced run: "
              f"{attempted} operations, {failed} failed; "
              f"Chrome trace in {d}/trace.json")
    else:
        if a.workload == "serve-hospital":
            s, values = serve_workload(a.seed, a.seconds, d)
        else:
            s, values = cli_workload(a.workload, a.seed, a.seconds, d)
        attempted, failed = s["attempted"], s["failed"]
        print(f"perfbench: workload={a.workload} seed={a.seed} "
              f"{attempted} operations, {failed} failed; op_tail_s is "
              f"p{s['tail_percentile']:g}, the highest percentile (at most "
              f"p99) with >=10 samples beyond it")
        names = spec["end_to_end"]
    metrics = {}
    for m in names:
        v = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": v if math.isfinite(v) else MISSING,
                              "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
