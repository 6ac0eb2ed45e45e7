#!/usr/bin/env python3
"""End-to-end benchmark of `ldiv`: the one-shot CLI and `ldiv serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the program from the
checkout's sources into .bench_build/, writes the workload's input CSVs
from the seed (gen.py), spins every core, makes the untimed warm-up
requests, then drives the real `ldiv` binary closed-loop for S seconds of
timed requests. Every output is checked outside the timed window
(check.py). The last line of standard output is one JSON object: with
--trace 0 it carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a traced pass that also replays the
same requests in-process through the benchmark's own replayer (replay.cc).
BENCHMARK.json gates paged_sweep and daemon_flood; release_1m, paged_1m
and paper_sweep run by name only (README.md says why). `--workload all`
runs all five in turn. The exit status is non-zero when any output check
fails.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from statistics import median

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402
import gen  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")

WARMUPS = 3         # set-up rounds per run; setup_s is their median
SPIN_SECONDS = 1.0  # all-core spin before the warm-ups
REPLAYS = 5         # traced in-process replays of a one-shot request
ALGORITHMS = ["TP", "TP+", "Hilbert", "Mondrian", "Anatomy", "TDS"]  # --algo=all order

# One-shot workloads: one client runs the same `ldiv` request back to back.
# `input` names the seed stream, so release_1m and paged_1m read the same
# rows and the gap between them is the out-of-core cost.
ONESHOT = {
    "release_1m": {"input": "1m", "rows": 1000000, "qi": 4, "raw": True,
                   "algo": "TP+", "ls": [4], "argv": ["--threads=4"]},
    "paged_1m": {"input": "1m", "rows": 1000000, "qi": 4, "raw": True,
                 "algo": "TP+", "ls": [4], "argv": ["--threads=4", "--memory-budget=32M"]},
    "paper_sweep": {"input": "sweep", "rows": 100000, "qi": 6, "raw": False,
                    "algo": "all", "ls": [2, 4, 6, 8, 10], "argv": ["--threads=4"]},
    "paged_sweep": {"input": "paged_sweep", "rows": 250000, "qi": 6, "raw": True,
                    "algo": "all", "ls": [2, 4], "argv": ["--threads=4", "--memory-budget=8M"]},
}
# daemon_flood: closed-loop clients in this process, each sending single
# jobs over a set of coded inputs that fit the daemon's caches.
DAEMON = {"rows": 50000, "qi": 5, "inputs": 8, "clients": 4, "ls": [2, 4],
          "serve": ["--workers=4"]}
WORKLOADS = ["release_1m", "paper_sweep", "daemon_flood", "paged_1m", "paged_sweep"]

_children = []  # live child processes, killed and reaped on any exit path


class BenchError(Exception):
    """A failure of the benchmark's own machinery (build, launch, protocol)
    rather than of an output check: the run prints no result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def rel(path):
    return os.path.relpath(path, ROOT)


def nproc():
    return len(os.sched_getaffinity(0))


def quantile(values, q):
    """Linearly interpolated q-quantile of the samples."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---- build and provenance ------------------------------------------------

def build():
    """Builds `ldiv` and the replayer from this checkout's sources."""
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("%s has no %s: run from the root of a checkout of the ldiv "
                             "sources" % (ROOT, need))
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "--build", BUILD, "--target", "ldiv", "ldiv_replay",
              "--parallel", str(min(4, nproc()))]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.call(step, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr) != 0:
            raise BenchError("build step failed: " + " ".join(step))
    info = {}
    with open(os.path.join(BUILD, "perfbench_build.txt")) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("=")
            info[key] = value
    return info


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """Digest of the sources the program is built from; identifies the code
    where the checkout carries no commit."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, name) for name in files]
    for path in sorted(paths):
        with open(path, "rb") as f:
            h.update(rel(path).encode() + b"\0" + f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---- host hygiene ----------------------------------------------------------

def spin_cores(seconds):
    """Keeps every core busy for `seconds` from forked children, so the first
    requests do not start on idle, clocked-down cores."""
    pids = []
    for _ in range(nproc()):
        pid = os.fork()
        if pid == 0:
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass
            os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)


def cpu_probe():
    """Seconds for a fixed, benchmark-owned CPU loop, read before and after
    each run: a host-speed diagnostic that tells host drift from a code
    change. Not a gated metric."""
    start = time.perf_counter()
    x = 0
    for i in range(3000000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


# ---- running ldiv ----------------------------------------------------------

class Launch:
    def __init__(self, wall, cpu, rss_kb, rc):
        self.wall = wall      # seconds from launch to exit
        self.cpu = cpu        # user + system seconds
        self.rss_kb = rss_kb  # ru_maxrss
        self.rc = rc
        self.ok = rc == 0


def launch(ctx, argv):
    """Runs one `ldiv` process to exit, with every output written."""
    with open(ctx.log_path, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ctx.env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=out)
        _children.append(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(proc)
    return Launch(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode)


def input_args(inp):
    args = ["--input=" + rel(inp.path)]
    return args + (["--format=raw"] if inp.format == "raw" else ["--schema=" + inp.schema])


def oneshot_argv(ctx, spec, stem, extra=()):
    return ([ctx.ldiv, "--algo=" + spec["algo"].lower(),
             "--l=" + ",".join(map(str, spec["ls"]))] + spec["argv"] +
            input_args(ctx.inputs[0]) + ["--out=" + rel(stem)] + list(extra))


def fingerprint(stem):
    """Digest of a one-shot request's release files and its report with the
    wall-clock fields removed."""
    h = hashlib.sha256(check.digest(check.release_files(stem)).encode())
    h.update(check.normalized_report(stem).encode())
    return h.hexdigest()


def move_outputs(stem, dest=None):
    """Moves a request's outputs to the stem `dest`, or deletes them. Every
    request then writes fresh files: rewriting a truncated file would make
    ext4 flush it to disk on close, and the host's disk would time the run."""
    directory, base = os.path.split(stem)
    for name in os.listdir(directory):
        if name.startswith(base + ".") or name.startswith(base + "_"):
            path = os.path.join(directory, name)
            if dest is None:
                os.remove(path)
            else:
                os.replace(path, os.path.join(directory, os.path.basename(dest) + name[len(base):]))


def full_check(ctx, stem, job, algorithm, l, inp):
    """Definition 2, coverage and star count of one release; a failure is
    recorded and counts against ok_frac."""
    try:
        if ctx.flip_sa and not ctx.flipped and job.get("methodology") != "bucketization":
            group = check.flip_sa(stem + ".csv", l)
            ctx.flipped = True
            log("flipped one SA value in QI-group (%s) of %s" % (group, rel(stem)))
        check.check_job(stem, job, algorithm, l, inp.sa_counts)
        return True
    except check.CheckError as e:
        ctx.failures.append(str(e))
        log("check failed: %s" % e)
        return False


def oneshot_requests(ctx, argv, stem, ref):
    """Runs `argv` back to back until ctx.seconds of timed requests. The
    first request's outputs move to `ref`; every later one must write the
    same release and report bytes (wall-clock fields aside)."""
    samples, ref_fp, timed = [], None, 0.0
    while timed < ctx.seconds:
        r = launch(ctx, argv)
        timed += r.wall
        if r.ok:
            fp = fingerprint(stem)
            r.ok = ref_fp is None or fp == ref_fp
            if ref_fp is None:
                ref_fp = fp
                move_outputs(stem, ref)
            elif not r.ok:
                ctx.failures.append("request %d wrote different bytes" % len(samples))
        else:
            ctx.failures.append("request %d exited %d" % (len(samples), r.rc))
        move_outputs(stem)
        samples.append(r)
    return samples, timed


def warm_up(ctx, argv, stem, count):
    """Untimed requests before the timed ones; their outputs are deleted."""
    runs = []
    for _ in range(count):
        runs.append(launch(ctx, argv))
        move_outputs(stem)
    if not all(r.ok for r in runs):
        raise BenchError("a warm-up request failed; see " + rel(ctx.log_path))
    return runs


def verify_oneshot(ctx, spec, ref):
    """Full check of the reference request. A sweep writes reports only, so
    one extra --write-releases request, whose report must match the
    reference's, supplies its releases."""
    inp = ctx.inputs[0]
    try:
        if spec["algo"] != "all":
            job = check.report_jobs(ref)[0]
            return full_check(ctx, ref, job, spec["algo"], spec["ls"][0], inp)
        stem = os.path.join(ctx.run_dir, "verify")
        r = launch(ctx, oneshot_argv(ctx, spec, stem, ["--write-releases"]))
        if r.rc != 0:
            raise check.CheckError("the --write-releases request exited %d" % r.rc)
        if check.normalized_report(stem) != check.normalized_report(ref):
            raise check.CheckError("the --write-releases request reports other results")
        jobs = check.report_jobs(stem)
        grid = [(algo, l) for algo in ALGORITHMS for l in spec["ls"]]
        if len(jobs) != len(grid):
            raise check.CheckError("%d jobs reported, %d requested" % (len(jobs), len(grid)))
        return all([full_check(ctx, "%s.job%d" % (stem, k), jobs[k], algo, l, inp)
                    for k, (algo, l) in enumerate(grid)])
    except (check.CheckError, OSError) as e:
        ctx.failures.append(str(e))
        log("check failed: %s" % e)
        return False


def run_oneshot(ctx, spec):
    stem = os.path.join(ctx.run_dir, "out")
    ref = os.path.join(ctx.run_dir, "ref")
    argv = oneshot_argv(ctx, spec, stem)
    ctx.provenance["argv"] = ["ldiv"] + argv[1:]
    setup = warm_up(ctx, argv, stem, WARMUPS)
    samples, timed = oneshot_requests(ctx, argv, stem, ref)
    ref_ok = verify_oneshot(ctx, spec, ref)
    oks = [r.ok and ref_ok for r in samples]
    latency = [r.wall * 1e3 for r, ok in zip(samples, oks) if ok] or \
              [r.wall * 1e3 for r in samples]
    jobs = len(ALGORITHMS) * len(spec["ls"]) if spec["algo"] == "all" else 1
    return {
        "metrics": {
            "setup_s": median([r.wall for r in setup]),
            "rows_per_s": ctx.inputs[0].rows * jobs * sum(oks) / timed,
            "latency_p50_ms": quantile(latency, 0.5),
            "peak_rss_mb": max(r.rss_kb for r in setup + samples) / 1024.0,
            "ok_frac": sum(oks) / len(oks),
        },
        "samples": {"setup_s": len(setup), "rows_per_s": len(samples),
                    "latency_p50_ms": len(latency), "peak_rss_mb": len(setup) + len(samples),
                    "ok_frac": len(oks)},
        "attempted": len(oks), "failed": len(oks) - sum(oks),
        "latencies_ms": [r.wall * 1e3 for r in samples],
        "setup_walls_s": [r.wall for r in setup],
    }


# ---- the daemon ------------------------------------------------------------

def call(sock, verb, payload=""):
    """One request/reply over the daemon's framed protocol
    (`ldiv1 <verb> <nbytes>\\n` + `key = value` lines)."""
    body = payload.encode()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(170)
        s.connect(sock)
        s.sendall(b"ldiv1 %s %d\n" % (verb.encode(), len(body)) + body)
        with s.makefile("rb") as f:
            header = f.readline().decode().split()
            if len(header) != 3 or header[0] != "ldiv1":
                raise OSError("bad reply header %r" % header)
            data = f.read(int(header[2])).decode()
    kv = {}
    for line in data.split("\n"):
        key, eq, value = line.partition("=")
        if eq:
            kv[key.strip()] = value.strip()
    return header[1], kv


def job_payload(inp, algo, l, stem):
    return "".join("%s = %s\n" % kv for kv in (
        ("version", "1"), ("algo", algo), ("l", str(l)), ("input", inp.path),
        ("format", "coded"), ("schema", inp.schema), ("out", stem), ("threads", "1")))


class Daemon:
    """A fresh `ldiv serve` on a private socket. stop() shuts it down with
    `ldiv ctl shutdown` and then requires the stats identity
    accepted == completed + expired + failed, a clean exit and no socket
    file left behind."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.sock = rel(os.path.join(ctx.run_dir, "ldivd.sock"))
        if os.path.exists(self.sock):
            raise BenchError("stale socket %s: an earlier daemon did not clean up" % self.sock)
        self.log = open(ctx.log_path, "ab")
        self.proc = subprocess.Popen([ctx.ldiv, "serve", "--socket=" + self.sock] +
                                     DAEMON["serve"], cwd=ROOT, env=ctx.env,
                                     stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)
        _children.append(self.proc)
        deadline = time.monotonic() + 60
        while True:
            try:
                if call(self.sock, "ping")[0] == "ok":
                    return
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise BenchError("ldiv serve exited %d" % self.proc.returncode)
            if time.monotonic() > deadline:
                raise BenchError("ldiv serve did not answer ping")
            time.sleep(0.002)

    def stats(self):
        verb, kv = call(self.sock, "stats")
        if verb != "ok":
            raise BenchError("stats verb answered %s" % verb)
        return {key: int(value) for key, value in kv.items()}

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        s = self.stats()
        if s["accepted"] != s["completed"] + s["expired"] + s["failed"]:
            raise BenchError("daemon stats break accepted == completed + expired + failed: %s"
                             % s)
        rc = subprocess.call([self.ctx.ldiv, "ctl", "shutdown", "--socket=" + self.sock],
                             cwd=ROOT, env=self.ctx.env, stdout=subprocess.DEVNULL,
                             stderr=self.log)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("the daemon did not stop after ctl shutdown")
        _children.remove(self.proc)
        self.log.close()
        if rc != 0 or self.proc.returncode != 0:
            raise BenchError("ctl shutdown exited %d, the daemon %d" % (rc, self.proc.returncode))
        if os.path.exists(self.sock):
            raise BenchError("the daemon left its socket %s behind" % self.sock)


def kinds():
    return [(algo, l) for algo in ALGORITHMS for l in DAEMON["ls"]]


def warmup(ctx, daemon):
    """One job per (input, algorithm), from all clients at once: fills the
    DatasetCache and the ArtifactCache."""
    todo = [(i, algo) for i in range(len(ctx.inputs)) for algo in ALGORITHMS]
    out = os.path.join(ctx.run_dir, "warm")
    os.makedirs(out, exist_ok=True)
    lock, errors = threading.Lock(), []

    def client():
        while True:
            with lock:
                if not todo:
                    return
                i, algo = todo.pop()
            stem = os.path.join(out, "w%d_%s" % (i, algo))
            try:
                verb, kv = call(daemon.sock, "job", job_payload(ctx.inputs[i], algo, 2, stem))
            except OSError as e:
                verb, kv = "error", {"error": str(e)}
            if verb != "ok":
                with lock:
                    errors.append("%s on input %d: %s" % (algo, i, kv.get("error", verb)))

    threads = [threading.Thread(target=client) for _ in range(DAEMON["clients"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    shutil.rmtree(out)
    if errors:
        raise BenchError("warm-up job failed: " + errors[0])


def client_requests(seed, client, inputs):
    """Client `client`'s requests: the six algorithms x l in {2, 4} in one
    order drawn from the seed, cycled, each on an input drawn from the seed.
    The sequence depends on the seed alone, never on thread timing."""
    rng = random.Random("%d:client:%d" % (seed, client))
    order = kinds()
    rng.shuffle(order)
    k = 0
    while True:
        algo, l = order[k % len(order)]
        yield rng.randrange(inputs), algo, l
        k += 1


def flood(ctx, daemon, out):
    """The closed loop: each client sends its next job when the previous
    reply arrives, until ctx.seconds have passed. Latency runs from connect
    to reply."""
    os.makedirs(out, exist_ok=True)
    records, lock = [], threading.Lock()
    start = time.perf_counter()
    stop = start + ctx.seconds

    def client(c):
        mine = []
        for k, (i, algo, l) in enumerate(client_requests(ctx.seed, c, len(ctx.inputs))):
            if time.perf_counter() >= stop:
                break
            stem = os.path.join(out, "c%d_%d" % (c, k))
            t0 = time.perf_counter()
            try:
                verb, kv = call(daemon.sock, "job", job_payload(ctx.inputs[i], algo, l, stem))
            except OSError as e:
                verb, kv = "error", {"error": str(e)}
            t1 = time.perf_counter()
            mine.append({"client": c, "k": k, "input": i, "algo": algo, "l": l, "stem": stem,
                         "latency": t1 - t0, "end": t1,
                         "ok": verb == "ok" and kv.get("exit-code") == "0",
                         "reply": kv.get("error", verb)})
        with lock:
            records.extend(mine)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(DAEMON["clients"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records.sort(key=lambda r: (r["client"], r["k"]))
    return records, max(r["end"] for r in records) - start


def verify_flood(ctx, records):
    """Full check of the first reply of each (input, algorithm, l); every
    later reply of that kind must write the same release bytes."""
    refs = {}
    for r in records:
        if not r["ok"]:
            ctx.failures.append("%s l=%d on input %d: %s" % (r["algo"], r["l"], r["input"],
                                                             r["reply"]))
            continue
        r["digest"] = check.digest(check.release_files(r["stem"]))
        key = (r["input"], r["algo"], r["l"])
        ref = refs.get(key)
        if ref is None:
            refs[key] = r
            try:
                job = check.report_jobs(r["stem"])[0]
                r["ok"] = full_check(ctx, r["stem"], job, r["algo"], r["l"],
                                     ctx.inputs[r["input"]])
            except check.CheckError as e:
                ctx.failures.append(str(e))
                r["ok"] = False
        else:
            r["ok"] = r["digest"] == ref["digest"] and ref["ok"]
            if r["digest"] != ref["digest"]:
                ctx.failures.append("%s wrote different bytes than %s" % (r["stem"], ref["stem"]))


def run_daemon(ctx):
    ctx.provenance["serve"] = ["ldiv", "serve"] + DAEMON["serve"]
    setup = []
    daemon = None
    for round_ in range(WARMUPS):
        start = time.perf_counter()
        daemon = Daemon(ctx)
        warmup(ctx, daemon)
        setup.append(time.perf_counter() - start)
        if round_ + 1 < WARMUPS:
            daemon.stop()
    out = os.path.join(ctx.run_dir, "flood")
    records, wall = flood(ctx, daemon, out)
    hwm_kb = daemon.vm_hwm_kb()
    daemon.stop()
    verify_flood(ctx, records)
    oks = [r["ok"] for r in records]
    latency = [r["latency"] * 1e3 for r in records if r["ok"]] or \
              [r["latency"] * 1e3 for r in records]
    return {
        "metrics": {
            "setup_s": median(setup),
            "rows_per_s": DAEMON["rows"] * sum(oks) / wall,
            "latency_p50_ms": quantile(latency, 0.5),
            "peak_rss_mb": hwm_kb / 1024.0,
            "ok_frac": sum(oks) / len(oks),
        },
        "samples": {"setup_s": len(setup), "rows_per_s": len(records),
                    "latency_p50_ms": len(latency), "peak_rss_mb": 1, "ok_frac": len(oks)},
        # Not gated: the one-shot workloads hold too few requests for a p95,
        # and every workload reports the same end-to-end set.
        "diagnostics": {"latency_p95_ms": quantile(latency, 0.95)},
        "attempted": len(oks), "failed": len(oks) - sum(oks),
        "setup_walls_s": setup,
    }


# ---- the traced pass -------------------------------------------------------

def run_replay(ctx, lines, threads, budget=None, cache_inputs=False):
    """Replays `lines` (input, algorithm list, l list, out stem,
    write-releases) in-process; returns one summary per request, after the
    set-up's summary (request -1) when `cache_inputs` is set."""
    plan = os.path.join(ctx.run_dir, "replay.plan")
    with open(plan, "w") as f:
        for inp, algos, ls, stem, write in lines:
            f.write("\t".join([rel(inp.path), inp.format, inp.schema or "-", algos,
                               ",".join(map(str, ls)), rel(stem), "1" if write else "0"]) + "\n")
    argv = [ctx.replay, "--plan=" + rel(plan), "--threads=%d" % threads,
            "--spans=" + rel(os.path.join(WORK, "results", ctx.tag + ".spans.json"))]
    if budget:
        argv.append("--memory-budget=" + budget)
    if cache_inputs:
        argv.append("--cache-inputs=true")
    with open(ctx.log_path, "ab") as err:
        proc = subprocess.run(argv, cwd=ROOT, env=ctx.env, stdout=subprocess.PIPE, stderr=err,
                              timeout=170)
    if proc.returncode != 0:
        raise BenchError("the replayer exited %d; see %s" % (proc.returncode,
                                                                  rel(ctx.log_path)))
    return [json.loads(line) for line in proc.stdout.decode().splitlines()]


def layer_metrics(ctx, replays, extra):
    """Per-layer metrics: each span's self time as the median over the
    replayed requests that enter it (0 for a layer the workload bypasses),
    the replay's counters, and the workload's own measurements `extra`."""
    out = {}
    for m in ctx.bench["per_layer"]:
        name = m["name"]
        span = name[:-3] if name.endswith("_ms") else None
        values = [r["self_ms"][span] for r in replays if span in r["self_ms"]]
        out[name] = median(values) if values else 0.0
    hits = sum(r["page_cache"]["hits"] for r in replays)
    misses = sum(r["page_cache"]["misses"] for r in replays)
    out.update({
        "common.budget_peak_mb": median(r["budget_peak_mb"] for r in replays),
        "common.page_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "common.page_cache_refaults": median(r["page_cache"]["refaults"] for r in replays),
        "engine.release_mb": median(r["release_mb"] for r in replays),
        "trace.replay_ms": median(r["wall_ms"] for r in replays),
        "trace.span_coverage": median(r["coverage"] for r in replays),
    })
    out.update(extra)
    return out


def replay_check(ctx, replays, pairs):
    """Every replayed partition is l-diverse and every replayed release is
    byte-identical to the CLI's release of the same request."""
    ok = all(r["l_diverse"] for r in replays)
    if not ok:
        ctx.failures.append("a replayed partition is not l-diverse")
    for cli, replay in pairs:
        if check.digest(check.release_files(cli)) != check.digest(check.release_files(replay)):
            ctx.failures.append("replayed release %s differs from the CLI's %s"
                                % (rel(replay), rel(cli)))
            ok = False
    return ok


def trace_oneshot(ctx, spec):
    inp = ctx.inputs[0]
    stem = os.path.join(ctx.run_dir, "out")
    ref = os.path.join(ctx.run_dir, "ref")
    argv = oneshot_argv(ctx, spec, stem)
    ctx.provenance["argv"] = ["ldiv"] + argv[1:]
    warm_up(ctx, argv, stem, 1)
    samples, _ = oneshot_requests(ctx, argv, stem, ref)
    ok = all(r.ok for r in samples) and verify_oneshot(ctx, spec, ref)
    budget = next((a.partition("=")[2] for a in spec["argv"]
                   if a.startswith("--memory-budget=")), None)
    # Each replayed request writes fresh files, as the CLI's do.
    stems = [os.path.join(ctx.run_dir, "replay%d" % k) for k in range(REPLAYS + 1)]
    lines = [(inp, spec["algo"], spec["ls"], stems[k], False) for k in range(REPLAYS)]
    if spec["algo"] == "all":
        # The sweep's releases, for the byte comparison with the CLI's
        # --write-releases request (checked by verify_oneshot).
        lines.append((inp, spec["algo"], spec["ls"], stems[REPLAYS], True))
        pairs = [(os.path.join(ctx.run_dir, "verify.job%d" % k), "%s.job%d" % (stems[REPLAYS], k))
                 for k in range(len(ALGORITHMS) * len(spec["ls"]))]
    else:
        pairs = [(ref, stem) for stem in stems[:REPLAYS]]
    replays = run_replay(ctx, lines, 4, budget)
    ok = replay_check(ctx, replays, pairs) and ok
    replays = replays[:REPLAYS]
    cli_ms = median([r.wall for r in samples]) * 1e3
    extra = {"tools.cpu_s": median([r.cpu for r in samples]),
             "tools.cores_busy": sum(r.cpu for r in samples) / sum(r.wall for r in samples),
             "trace.overhead_ms": cli_ms - median(r["wall_ms"] for r in replays)}
    attempted = len(samples) + len(lines)
    return {"metrics": layer_metrics(ctx, replays, extra),
            "samples": {"cli_requests": len(samples), "replayed_requests": len(replays)},
            "attempted": attempted, "failed": 0 if ok else attempted}


def trace_daemon(ctx):
    ctx.provenance["serve"] = ["ldiv", "serve"] + DAEMON["serve"]
    daemon = Daemon(ctx)
    warmup(ctx, daemon)
    pings = []
    for _ in range(50):
        t0 = time.perf_counter()
        call(daemon.sock, "ping")
        pings.append(time.perf_counter() - t0)
    before, cpu0 = daemon.stats(), daemon.cpu_seconds()
    records, wall = flood(ctx, daemon, os.path.join(ctx.run_dir, "flood"))
    after, cpu1 = daemon.stats(), daemon.cpu_seconds()
    # Each job kind again with one request in flight: its service time.
    service = collections.defaultdict(list)
    single = os.path.join(ctx.run_dir, "single")
    os.makedirs(single, exist_ok=True)
    for algo, l in kinds():
        for i in range(2):
            t0 = time.perf_counter()
            verb, kv = call(daemon.sock, "job", job_payload(
                ctx.inputs[i], algo, l, os.path.join(single, "%s_%d_%d" % (algo, l, i))))
            service[(algo, l)].append(time.perf_counter() - t0)
            if verb != "ok":
                ctx.failures.append("single %s l=%d: %s" % (algo, l, kv.get("error", verb)))
    daemon.stop()
    verify_flood(ctx, records)
    ok = not ctx.failures

    first = {}
    for r in records:
        if r["ok"]:
            first.setdefault((r["algo"], r["l"]), r)
    replay_dir = os.path.join(ctx.run_dir, "replay")
    os.makedirs(replay_dir, exist_ok=True)
    lines, pairs = [], []
    for k, r in enumerate(first.values()):
        stem = os.path.join(replay_dir, "r%d" % k)
        lines.append((ctx.inputs[r["input"]], r["algo"], [r["l"]], stem, False))
        pairs.append((r["stem"], stem))
    setup, *replays = run_replay(ctx, lines, 1, cache_inputs=True)
    ok = replay_check(ctx, replays, pairs) and ok

    def delta(key):
        return after[key] - before[key]

    completed = sum(r["ok"] for r in records)
    kind_ms = {kind: median(v) * 1e3 for kind, v in service.items()}
    service_ms = median([s for v in service.values() for s in v]) * 1e3
    lookups = delta("cache-hits") + delta("cache-misses")
    artifact_lookups = delta("artifact-hits") + delta("artifact-misses")
    extra = {
        "engine.dataset_cache_hit_ratio": delta("cache-hits") / lookups if lookups else 0.0,
        "engine.artifact_cache_hit_ratio":
            delta("artifact-hits") / artifact_lookups if artifact_lookups else 0.0,
        "daemon.service_ms": service_ms,
        "daemon.wait_ms": median([r["latency"] * 1e3 - kind_ms[(r["algo"], r["l"])]
                                  for r in records if r["ok"]]),
        "daemon.ping_ms": median(pings) * 1e3,
        "daemon.latency_p95_ms": quantile([r["latency"] * 1e3 for r in records if r["ok"]], 0.95),
        "daemon.busy_replies": delta("rejected-busy"),
        "daemon.failed": delta("failed"),
        "daemon.max_queue_depth": after["max-queue-depth"],
        "tools.cpu_s": (cpu1 - cpu0) / max(completed, 1),
        "tools.cores_busy": (cpu1 - cpu0) / wall,
        "trace.overhead_ms": service_ms - median(r["wall_ms"] for r in replays),
    }
    # The daemon loads, groups and Hilbert-orders each input once, in
    # set-up; the replayed set-up gives those layers' cost per input.
    inputs = len({inp.path for inp, *_ in lines})
    extra.update({span + "_ms": setup["self_ms"].get(span, 0.0) / inputs
                  for span in ("data.load", "common.group", "hilbert.order")})
    attempted = len(records) + len(lines)
    return {"metrics": layer_metrics(ctx, replays, extra),
            "samples": {"flood_requests": len(records), "single_requests":
                        sum(len(v) for v in service.values()), "pings": len(pings),
                        "replayed_requests": len(replays)},
            "attempted": attempted, "failed": 0 if ok else attempted}


# ---- main ------------------------------------------------------------------

class Context:
    def __init__(self, args, bench, info, name):
        self.name = name
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.flip_sa = args.flip_sa
        self.flipped = False
        self.bench = bench
        self.ldiv = info["ldiv"]
        self.replay = info["replay"]
        self.tag = "%s-seed%d-trace%d" % (name, args.seed, args.trace)
        self.run_dir = os.path.join(WORK, "run", name)
        self.log_path = os.path.join(WORK, "results", self.tag + ".log")
        self.failures = []
        shutil.rmtree(self.run_dir, ignore_errors=True)
        spill = os.path.join(self.run_dir, "spill")
        os.makedirs(spill)
        os.makedirs(os.path.dirname(self.log_path), exist_ok=True)
        if os.path.exists(self.log_path):
            os.remove(self.log_path)
        # The program's own environment knobs stay unset; spill files stay
        # inside the checkout.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("LDIV_")}
        self.env["TMPDIR"] = self.env["LDIV_SPILL_DIR"] = spill
        self.inputs = []
        self.provenance = {
            "commit": git_commit(), "source_sha256": source_digest(),
            "host": platform.node(), "cpu_model": cpu_model(), "nproc": nproc(),
            "compiler": info.get("compiler"), "build_type": info.get("build_type"),
            "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        }


INPUT_CACHE_BYTES = 256 << 20


def cached_input(stream, rows, qi, raw):
    """gen.write_csv through a small cache under .bench_build/inputs: runs
    that share a seed (release_1m and paged_1m, or a repeated series) reuse
    the file, after checking its digest, instead of regenerating it. The key
    covers gen.py's source, so a change to the generator misses."""
    with open(gen.__file__, "rb") as f:
        key = hashlib.sha256(repr((stream, rows, qi, raw)).encode() + f.read()).hexdigest()
    cache = os.path.join(WORK, "inputs")
    path = os.path.join(cache, key[:24] + ".csv")
    meta = path + ".json"
    try:
        with open(meta) as f:
            m = json.load(f)
        with open(path, "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() == m["digest"]:
                os.utime(meta)
                return gen.Input(path, m["rows"], m["digest"], m["schema"], m["format"],
                                 collections.Counter(m["sa_counts"]))
    except (OSError, ValueError, KeyError):
        pass
    os.makedirs(cache, exist_ok=True)
    inp = gen.write_csv(path, stream, rows, qi, raw)
    with open(meta, "w") as f:
        json.dump({"rows": inp.rows, "digest": inp.digest, "schema": inp.schema,
                   "format": inp.format, "sa_counts": inp.sa_counts}, f)
    # Keep the most recently used inputs within INPUT_CACHE_BYTES.
    entries = sorted((os.path.join(cache, n) for n in os.listdir(cache) if n.endswith(".json")),
                     key=os.path.getmtime, reverse=True)
    kept = 0
    for entry in entries:
        csv = entry[:-len(".json")]
        kept += os.path.getsize(csv) if os.path.exists(csv) else 0
        if kept > INPUT_CACHE_BYTES and entry != meta:
            for stale in (entry, csv):
                if os.path.exists(stale):
                    os.remove(stale)
    return inp


def make_inputs(ctx):
    if ctx.name == "daemon_flood":
        return [cached_input("%d:daemon:%d" % (ctx.seed, i), DAEMON["rows"], DAEMON["qi"], False)
                for i in range(DAEMON["inputs"])]
    spec = ONESHOT[ctx.name]
    return [cached_input("%d:%s" % (ctx.seed, spec["input"]), spec["rows"], spec["qi"],
                         spec["raw"])]


def run_workload(args, bench, info, name):
    ctx = Context(args, bench, info, name)
    ctx.inputs = make_inputs(ctx)
    ctx.provenance["inputs"] = [{"path": rel(i.path), "rows": i.rows, "sha256": i.digest,
                                 "format": i.format} for i in ctx.inputs]
    probe_before = cpu_probe()
    spin_cores(SPIN_SECONDS)
    if name == "daemon_flood":
        result = trace_daemon(ctx) if ctx.trace else run_daemon(ctx)
    else:
        spec = ONESHOT[name]
        result = trace_oneshot(ctx, spec) if ctx.trace else run_oneshot(ctx, spec)
    ctx.provenance["probe_before_s"] = probe_before
    ctx.provenance["probe_after_s"] = cpu_probe()
    result["correct"] = not ctx.failures
    result["failures"] = ctx.failures[:20]
    result["provenance"] = ctx.provenance
    with open(os.path.join(WORK, "results", ctx.tag + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    if result["correct"]:
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
    return result


def print_result(name, result, defs):
    print("%s: %s, %d attempted, %d failed" % (
        name, "outputs verified" if result["correct"] else "OUTPUT CHECK FAILED",
        result["attempted"], result["failed"]))
    for m in defs:
        n = result["samples"].get(m["name"])
        print("  %-34s %16.6f %-8s%s" % (m["name"], result["metrics"][m["name"]], m["unit"],
                                         "  (n=%d)" % n if n else ""))
    for name, value in result.get("diagnostics", {}).items():
        print("  %-34s %16.6f %-8s  (n=%d, not gated)" % (name, value, "ms",
                                                         result["samples"]["latency_p50_ms"]))
    prov = result["provenance"]
    print("  host %s (%s, nproc %d), %s %s, commit %s, host probe %.3f s -> %.3f s" % (
        prov["host"], prov["cpu_model"], prov["nproc"], prov["compiler"], prov["build_type"],
        prov["commit"] or "n/a (source sha256 %s)" % prov["source_sha256"][:16],
        prov["probe_before_s"], prov["probe_after_s"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--flip-sa", action="store_true",
                        help="checker self-test: corrupt the first fully checked release so "
                             "that one QI-group breaks Definition 2; the run must then fail")
    args = parser.parse_args()
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                bench = json.load(f)
        except (OSError, ValueError) as e:
            raise BenchError("cannot read BENCHMARK.json: %s" % e)
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        info = build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {name: run_workload(args, bench, info, name) for name in names}
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        for proc in _children:
            proc.kill()
            proc.wait()

    defs = bench["per_layer" if args.trace else "end_to_end"]
    for name, result in results.items():
        print_result(name, result, defs)
    correct = all(r["correct"] for r in results.values())
    if len(results) == 1:
        result = results[names[0]]
        metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                   for m in defs}
    else:
        metrics = {"%s/%s" % (name, m["name"]): {"value": r["metrics"][m["name"]],
                                                 "unit": m["unit"]}
                   for name, r in results.items() for m in defs}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
