#!/usr/bin/env python3
"""PASim benchmark: the report, faults and serve workloads.

    python3 perfbench/run.py --workload report|faults|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run in a checkout builds
full_report, resilience_sweep, pasim_serve and the benchmark harness
from source (Release, no sanitizer) under .bench_build/. Each run works
in fresh directories under .bench_out/ and removes them when it ends.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: BENCHMARK.json's end_to_end metrics with
--trace 0, its per_layer metrics with --trace 1. Lines before it give
the host fingerprint and the workload's full breakdown.
perfbench/README.md defines every workload and metric.
"""
import argparse
import filecmp
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
OUT = ".bench_out"
BINARIES = {
    "full_report": os.path.join(BUILD, "pasim", "bench", "full_report"),
    "resilience_sweep": os.path.join(BUILD, "pasim", "bench",
                                     "resilience_sweep"),
    "pasim_serve": os.path.join(BUILD, "pasim", "tools", "pasim_serve"),
    "perfbench_harness": os.path.join(BUILD, "perfbench_harness"),
}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SETUPS = 7            # set-ups per untraced run; setup_s is their median
FAULT_RATE = 0.05
FAULT_SEEDS = 16      # --seed n injects fault seed 1 + n % 16 (oracles/)
COLD_QUERIES = 1000   # serve: enough samples beyond the cold p99
SERIAL_QUERIES = 100  # serve: cold queries on one connection
PROBE_QUERIES = 100   # serve, traced: queries through the in-process probes
RUN_LIMIT_S = 170     # a run ends itself after this many seconds


class BenchError(Exception):
    """Ends the run without a result line."""


def nproc():
    return len(os.sched_getaffinity(0))


def percentile(samples, p, min_beyond=10):
    """Nearest-rank p-th percentile (integer p in 1..99) of `samples`, or
    None when fewer than `min_beyond` samples lie beyond it."""
    if not isinstance(p, int) or not 0 < p < 100:
        raise ValueError("p must be an integer in 1..99")
    n = len(samples)
    rank = (p * n + 99) // 100
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def check_names(bench):
    """Validates BENCHMARK.json's workload and metric tables."""
    seen = set()
    for w in bench["workloads"]:
        if not NAME_RE.match(w["name"]):
            raise BenchError(f"bad workload name {w['name']!r}")
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            name = m["name"]
            if not NAME_RE.match(name) or name in seen:
                raise BenchError(f"bad or repeated metric name {name!r}")
            if not UNIT_RE.match(m["unit"]) or m["better"] not in (
                    "lower", "higher"):
                raise BenchError(f"bad unit or direction for {name!r}")
            seen.add(name)
    return bench


def sweep_ratios(sweep_s, serial_s, procs, layers, cpu_s):
    """Derived figures of a traced report or faults run."""
    bound = max(layers["simulate_s"] / procs, layers["simulate_max_s"])
    named = layers["simulate_s"] + layers["replay_s"] + layers["fit_s"]
    return {
        "analysis.bound_s": bound,
        "analysis.sched_efficiency": bound / sweep_s,
        "analysis.cpu_util": cpu_s / (sweep_s * procs),
        "analysis.coverage": named / serial_s,
        "analysis.unattributed_s": serial_s - named,
    }


def serve_ratios(cold, serial, procs, probe, cpu_s):
    """Derived figures of a traced serve run. `cold` and `serial` are the
    cold phase over `procs` connections and over one; times per query."""
    par_ms = 1e3 * cold["wall_s"] / cold["queries"]
    ser_ms = 1e3 * serial["wall_s"] / serial["queries"]
    bound_ms = probe["compute_ms_mean"] / procs
    return {
        "par_ms": par_ms,
        "ser_ms": ser_ms,
        "analysis.bound_s": bound_ms / 1e3,
        "analysis.sched_efficiency": bound_ms / par_ms,
        "analysis.cpu_util": cpu_s / (cold["wall_s"] * procs),
        "analysis.coverage": probe["broker_cold_ms"] / ser_ms,
        "analysis.unattributed_s": (ser_ms - probe["broker_cold_ms"]) / 1e3,
    }


# ---- processes ---------------------------------------------------------

CHILDREN = set()


class Child:
    """A child process, reaped with wait4 so its rusage is its own (and
    that of the children it reaped, e.g. pasim_serve's workers)."""

    def __init__(self, argv, cwd, stdout=None, stderr=None):
        files = [open(p, "ab") if p else None for p in (stdout, stderr)]
        try:
            self.start = time.perf_counter()
            self.popen = subprocess.Popen(
                argv, cwd=cwd, stdin=subprocess.DEVNULL,
                stdout=files[0] or subprocess.DEVNULL,
                stderr=files[1] or subprocess.DEVNULL)
        finally:
            for f in files:
                if f:
                    f.close()
        self.pid = self.popen.pid
        self.result = None
        CHILDREN.add(self)

    def _reaped(self, status, rusage):
        rc = os.waitstatus_to_exitcode(status)
        self.popen.returncode = rc
        self.result = (rc, time.perf_counter() - self.start, rusage)
        CHILDREN.discard(self)

    def poll(self):
        if self.result is None:
            pid, status, rusage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                self._reaped(status, rusage)
        return self.result

    def wait(self):
        """(exit code, wall seconds, rusage)."""
        if self.result is None:
            _, status, rusage = os.wait4(self.pid, 0)
            self._reaped(status, rusage)
        return self.result

    def kill(self):
        if self.result is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.wait()


def proc_cpu_s(pid):
    """utime + stime of `pid` and its reaped children, from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return sum(int(x) for x in fields[11:15]) / os.sysconf("SC_CLK_TCK")


class ThreadPeak(threading.Thread):
    """Samples a running process's thread count from /proc."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.path = f"/proc/{pid}/status"
        self.peak = 0
        self.done = threading.Event()

    def run(self):
        while not self.done.is_set():
            try:
                with open(self.path) as f:
                    for line in f:
                        if line.startswith("Threads:"):
                            self.peak = max(self.peak, int(line.split()[1]))
            except OSError:
                return
            self.done.wait(0.002)


# ---- build and fingerprint --------------------------------------------

def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("no PASim source tree beside perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", "-DPASIM_SANITIZE="])
    steps.append(["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
                  *BINARIES])
    log = os.path.join(BUILD, "build.log")
    for cmd in steps:
        with open(log, "ab") as f:
            rc = subprocess.call(cmd, stdin=subprocess.DEVNULL, stdout=f,
                                 stderr=subprocess.STDOUT)
        if rc != 0:
            with open(log, errors="replace") as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            raise BenchError("build failed: " + " ".join(cmd))


def source_id():
    """The commit, or a digest of the product sources outside git."""
    if os.path.isdir(".git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "tools"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(top) for n in ns)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def fingerprint(args, seeds):
    """Host and build identity; refuses a sanitizer or debug build."""
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^(\w+):\w+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    sanitizer = cache.get("PASIM_SANITIZE", "")
    if sanitizer or build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing to measure a build with CMAKE_BUILD_TYPE="
                         f"'{build_type}' PASIM_SANITIZE='{sanitizer}'")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": nproc(), "cpu": cpu,
            "compiler": version[0] if version else compiler,
            "build_type": build_type, "sanitizer": sanitizer or "none",
            "commit": source_id(), "workload": args.workload,
            "seed": args.seed, "workload_seeds": seeds}


# ---- a run -------------------------------------------------------------

class Run:
    """One benchmark run: its directory and operation counts."""

    def __init__(self, args):
        self.args = args
        self.procs = nproc()
        self.dir = os.path.join(OUT, f"run-{os.getpid()}")
        self.results = os.path.join(OUT, "results")
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def spans_path(self):
        return os.path.abspath(os.path.join(self.results,
                                            self.tag + ".spans.json"))

    def fresh(self, name):
        path = os.path.join(self.dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)

    def ops(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 10:
            self.reasons.append(f"{what}: {failed} of {attempted} failed")

    def spawn(self, name, argv, cwd, stdout=None):
        log = os.path.join(cwd, name + ".log")
        return Child([os.path.abspath(BINARIES[name]), *argv], cwd,
                     stdout or log, log)

    def harness(self, argv, cwd):
        rc, _, _ = self.spawn("perfbench_harness", argv, cwd).wait()
        if rc != 0:
            with open(os.path.join(cwd, "perfbench_harness.log"),
                      errors="replace") as f:
                sys.stderr.write(f.read()[-2000:])
            raise BenchError(f"harness {argv[0]} exited {rc}")


def load(path):
    with open(path) as f:
        return json.load(f)


# ---- report and faults -------------------------------------------------

def faults_seed(seed):
    return 1 + seed % FAULT_SEEDS


def faults_table(text):
    """resilience_sweep's table: its title and every border or row line."""
    return "".join(line for line in text.splitlines(True)
                   if line.startswith(("Resilience sweep:", "+", "|")))


def faults_oracle(fault_seed):
    return os.path.join("perfbench", "oracles", f"faults-seed{fault_seed}.txt")


class Sweep:
    """report or faults: the product command and its oracle check."""

    def __init__(self, run):
        self.run = run
        self.report = run.args.workload == "report"
        self.name = "full_report" if self.report else "resilience_sweep"
        self.fault_seed = None if self.report else faults_seed(run.args.seed)
        # A traced run's product runs also count their stable sweep
        # metrics, so the product itself reports the points it repriced.
        self.extra = ["--metrics"] if run.args.trace else []

    def argv(self, jobs, small=False):
        argv = ["--no-cache", "--jobs", str(jobs)]
        argv += ["--small"] if small else self.extra
        if self.report:
            return argv + ["--out", "out"]
        return argv + ["--faults", str(FAULT_RATE), "--fault-seed",
                       str(self.fault_seed)]

    def check(self, work):
        """Byte-compares the run's artifacts with the oracle."""
        if self.report:
            ref, out = "pasim_report", os.path.join(work, "out")
            names = sorted(os.listdir(ref))
            return names == sorted(os.listdir(out)) and all(
                filecmp.cmp(os.path.join(ref, n), os.path.join(out, n),
                            shallow=False) for n in names)
        with open(os.path.join(work, "stdout.txt"), errors="replace") as f:
            table = faults_table(f.read())
        with open(faults_oracle(self.fault_seed)) as f:
            return table != "" and table == f.read()

    def setup(self, times):
        """Fresh directories plus a small warm-up run of the product."""
        samples = []
        for _ in range(times):
            t0 = time.perf_counter()
            work = self.run.fresh("work")
            rc, _, _ = self.run.spawn(self.name, self.argv(1, small=True),
                                      work).wait()
            if rc != 0:
                raise BenchError(f"{self.name} warm-up exited {rc}")
            samples.append(time.perf_counter() - t0)
        return median(samples)

    def timed(self, jobs, sample_threads=False):
        """One checked run of the product: (wall, cpu seconds, stdout,
        peak thread count when sampled, peak RSS in KB)."""
        run = self.run
        work = run.fresh("work")
        stdout = os.path.join(work, "stdout.txt")
        child = run.spawn(self.name, self.argv(jobs), work, stdout)
        sampler = ThreadPeak(child.pid) if sample_threads else None
        if sampler:
            sampler.start()
        rc, wall, ru = child.wait()
        if sampler:
            sampler.done.set()
            sampler.join()
        ok = rc == 0 and self.check(work)
        run.op(ok, f"{self.name} --jobs {jobs}: "
               + (f"exit {rc}" if rc else "output differs from its oracle"))
        with open(stdout, errors="replace") as f:
            text = f.read()
        return wall, ru.ru_utime + ru.ru_stime, text, (
            sampler.peak if sampler else 0), ru.ru_maxrss

    def phases(self):
        """Cold queries on nproc connections, then the same queries warm
        on nproc connections and once more warm on one."""
        cold = self.load("cold", "cold", queries=COLD_QUERIES)
        warm = self.load("warm", "warm")
        warm1 = self.load("warm", "warm1", conns=1)
        return cold, warm, warm1

    def untraced(self):
        run = self.run
        setup_s = self.setup(SETUPS)
        par, ser, par_rss, ser_rss = [], [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for jobs, walls, rss in ((run.procs, par, par_rss),
                                     (1, ser, ser_rss)):
                wall, _, _, _, rss_kb = self.timed(jobs)
                walls.append(wall)
                rss.append(rss_kb / 1024.0)
            pair = time.perf_counter() - t0
            if time.perf_counter() - start + pair > run.args.seconds:
                break
        # Peak RSS at --jobs nproc depends on which columns overlap and
        # swings by a third between runs; the --jobs 1 schedule is fixed.
        metrics = {"setup_s": setup_s, "cold_s": median(par),
                   "rerun_s": median(ser), "peak_rss_mb": median(ser_rss)}
        detail = {"sweep_s": median(par), "sweep_serial_s": median(ser),
                  "sweep_s_runs": par, "sweep_serial_s_runs": ser,
                  "peak_rss_mb_jobs_nproc": median(par_rss),
                  "jobs": run.procs}
        return metrics, detail

    def traced(self):
        run = self.run
        self.setup(1)
        sweep_s, cpu_s, text, threads, _ = self.timed(run.procs, True)
        serial_s = self.timed(1)[0]
        work = run.fresh("trace")
        argv = ["trace-sweep", "--workload", run.args.workload, "--spans",
                run.spans_path(), "--out", "trace.json"]
        if not self.report:
            argv += ["--fault-seed", str(self.fault_seed),
                     "--rate", str(FAULT_RATE)]
        run.harness(argv, work)
        trace = load(os.path.join(work, "trace.json"))
        layers = trace["layers"]
        scaling = run_scaling(run, serial_s, sweep_s, run.procs)
        m = re.search(r"sweep points: repriced (\d+)", text)
        product_lanes = int(m.group(1)) if m else 0
        metrics = layer_metrics(layers)
        # Rank threads of the product at --jobs nproc: its peak thread
        # count less the main thread and the executor's pool.
        metrics["mpi.rank_threads_max"] = max(0, threads - 1 - run.procs)
        metrics.update(scaling_metrics(scaling))
        ratios = sweep_ratios(sweep_s, serial_s, run.procs, layers, cpu_s)
        metrics.update(ratios)
        metrics.update({
            "analysis.ledger_bytes": 0.0,
            "fault.send_retries": layers["send_retries"],
            "fault.points_failed": layers["points_failed"],
            "serve.cold.useful_ratio": 0.0,
        })
        for name in SERVE_COUNTERS:
            metrics[name] = 0.0
        detail = {
            "sweep_s": sweep_s, "sweep_serial_s": serial_s,
            "core.fit_s": layers["fit_s"],
            "analysis.unattributed_s": ratios["analysis.unattributed_s"],
            "traced_wall_s": trace["traced_wall_s"],
            "untraced_wall_s": serial_s,
            "self_s": trace["self_s"],
            "simulate_max_at": layers["simulate_max_at"],
            "product_repriced_points": product_lanes,
            # resilience_sweep prices only its clean half by replay.
            "replay_lanes_fault_injected": product_lanes
            - layers["replay_lanes"],
        }
        return metrics, detail


def run_scaling(run, serial, parallel, procs):
    work = run.fresh("scaling")
    run.harness(["scaling", "--serial", repr(serial), "--parallel",
                 repr(parallel), "--procs", str(procs), "--out",
                 "scaling.json"], work)
    return load(os.path.join(work, "scaling.json"))


def scaling_metrics(scaling):
    return {"analysis.speedup": scaling["speedup"],
            "analysis.efficiency": scaling["efficiency"],
            # Undefined on one processor; reported as 0 there.
            "analysis.karp_flatt": scaling["karp_flatt"] or 0.0}


def layer_metrics(layers):
    """npb/sim/mpi and simulate/replay figures from harness layer totals."""
    ops = layers["charge_ops"]
    return {
        "mpi.rank_cpu_s": layers["rank_cpu_s"],
        "mpi.rank_blocked_s": layers["rank_wall_s"] - layers["rank_cpu_s"],
        "mpi.dispatch_s": layers["dispatch_s"],
        "mpi.messages": layers["messages"],
        "mpi.rank_threads_max": layers["rank_threads_max"],
        "sim.charge_ops": ops,
        "sim.host_ns_per_op": 1e9 * layers["simulate_s"] / ops if ops else 0.0,
        "analysis.simulate_calls": layers["simulate_calls"],
        "analysis.simulate_s": layers["simulate_s"],
        "analysis.simulate_max_s": layers["simulate_max_s"],
        "analysis.replay_lanes": layers["replay_lanes"],
        "analysis.replay_s": layers["replay_s"],
    }


# ---- serve -------------------------------------------------------------

SERVE_COUNTERS = ("serve.columns", "serve.cache_hits", "serve.dedup_hits",
                  "serve.worker_restarts", "serve.worker_crashes",
                  "serve.worker_timeouts", "serve.protocol_errors")
HEALTH = ("serve.worker_crashes", "serve.worker_timeouts",
          "serve.protocol_errors")


def request(sock, obj, timeout=30.0):
    """One line-protocol request to pasim_serve; its first reply line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock)
        s.sendall((json.dumps(obj) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise OSError("connection closed")
            buf += chunk
    return json.loads(buf)


class Serve:
    """One pasim_serve with default options on a fresh cache, driven by
    the harness's closed-loop generator."""

    def __init__(self, run):
        self.run = run
        self.srv = os.path.join(run.dir, "srv")
        self.sock = os.path.join(self.srv, "s.sock")
        self.child = None

    def start(self):
        """Fresh directories, then the server, until it answers ping."""
        self.run.fresh("srv")
        self.child = self.run.spawn(
            "pasim_serve", ["--socket", "s.sock", "--cache", "cache",
                            "--metrics-csv", "metrics.csv"], self.srv)
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                if request(self.sock, {"op": "ping"}).get("ok"):
                    return
            except OSError:
                pass
            if self.child.poll() or time.perf_counter() > deadline:
                raise BenchError("pasim_serve did not come up")
            time.sleep(0.001)

    def stop(self):
        """Stops the server with the shutdown op: (exit code, counters)."""
        try:
            request(self.sock, {"op": "shutdown"})
        except OSError:
            self.child.kill()
        rc, _, ru = self.child.wait()
        self.rss_mb = ru.ru_maxrss / 1024.0
        counters = {}
        path = os.path.join(self.srv, "metrics.csv")
        if os.path.isfile(path):
            with open(path) as f:
                for line in f.read().splitlines()[1:]:
                    name, _, _, value = line.split(",")
                    counters[name] = float(value)
        return rc, counters

    def health(self, rc, counters):
        bad = [n for n in HEALTH if counters.get(n, 0.0) != 0.0]
        self.run.op(rc == 0 and not bad,
                    f"pasim_serve exit {rc}, nonzero {bad}")

    def setup(self, times):
        samples = []
        for i in range(times):
            t0 = time.perf_counter()
            self.start()
            samples.append(time.perf_counter() - t0)
            if i + 1 < times:
                self.health(*self.stop())
        return median(samples)

    def load(self, phase, name, conns=None, queries=0, tail=False,
             state="cold.state.json"):
        argv = ["serve-load", "--socket", "s.sock", "--phase", phase,
                "--seed", str(self.run.args.seed), "--conns",
                str(conns or self.run.procs), "--queries", str(queries),
                "--state", state, "--out", name + ".json"]
        if tail:
            argv.append("--tail")
        self.run.harness(argv, self.srv)
        result = load(os.path.join(self.srv, name + ".json"))
        self.run.ops(int(result["queries"]), int(result["failed"]),
                     f"{name} queries")
        if result["queries"] == 0:
            raise BenchError(f"{name}: no query was answered")
        return result

    def phases(self):
        """Cold queries on nproc connections, then the same queries warm
        on nproc connections and once more warm on one."""
        cold = self.load("cold", "cold", queries=COLD_QUERIES)
        warm = self.load("warm", "warm")
        warm1 = self.load("warm", "warm1", conns=1)
        return cold, warm, warm1

    def untraced(self):
        setup_s = self.setup(SETUPS)
        cold, warm, warm1 = self.phases()
        rc, counters = self.stop()
        self.health(rc, counters)
        detail = phase_detail(cold, warm)
        detail["warm1_p50_ms"] = percentile(warm1["latencies_ms"], 50)
        metrics = {"setup_s": setup_s,
                   "cold_s": detail["cold_p50_ms"] / 1e3,
                   "rerun_s": detail["warm1_p50_ms"] / 1e3,
                   "peak_rss_mb": self.rss_mb}
        detail.update({n: counters.get(n, 0.0) for n in SERVE_COUNTERS})
        return metrics, detail

    def traced(self):
        run = self.run
        self.setup(1)
        pid = self.child.pid
        cpu = [proc_cpu_s(pid)]
        cold = self.load("cold", "cold", queries=COLD_QUERIES)
        cpu.append(proc_cpu_s(pid))
        warm = self.load("warm", "warm")
        cpu.append(proc_cpu_s(pid))
        serial = self.load("cold", "serial", conns=1, queries=SERIAL_QUERIES,
                           tail=True, state="serial.state.json")
        rc, counters = self.stop()
        self.health(rc, counters)
        cpu_cold, cpu_warm = cpu[1] - cpu[0], cpu[2] - cpu[1]
        # The stats op's request histogram is cumulative, so it gives the
        # cold phase's p50 only (read right after that phase).
        server_cold = 1e3 * cold["stats"]["request_seconds"]["p50"]

        work = run.fresh("probe")
        run.harness(["serve-probe", "--seed", str(run.args.seed),
                     "--queries", str(PROBE_QUERIES), "--dir", "data",
                     "--spans", run.spans_path(), "--out", "probe.json"],
                    work)
        probe = load(os.path.join(work, "probe.json"))
        ratios = serve_ratios(cold, serial, run.procs, probe, cpu_cold)
        scaling = run_scaling(run, ratios["ser_ms"], ratios["par_ms"],
                              run.procs)
        detail = phase_detail(cold, warm)
        cold_p50 = detail["cold_p50_ms"]
        metrics = layer_metrics(probe["layers"])
        metrics.update(scaling_metrics(scaling))
        metrics.update({k: v for k, v in ratios.items()
                        if k.startswith("analysis.")})
        metrics.update({
            "analysis.ledger_bytes": probe["ledger_bytes_per_query"],
            "fault.send_retries": 0.0,
            "fault.points_failed": 0.0,
            "serve.cold.useful_ratio": probe["compute_ms"] / cold_p50,
        })
        for name in SERVE_COUNTERS:
            metrics[name] = counters.get(name, 0.0)
        detail.update({
            "serve.cold.server_p50_ms": server_cold,
            "serve.cold.wire_ms": cold_p50 - server_cold,
            # Client p50 less the in-process broker: parse, encode, socket
            # and queueing behind the other connections.
            "serve.warm.wire_ms": detail["warm_p50_ms"]
            - probe["broker_warm_ms"],
            "serve.cold.broker_run_ms": probe["broker_cold_ms"],
            "serve.warm.broker_run_ms": probe["broker_warm_ms"],
            "serve.cold.compute_ms": probe["compute_ms"],
            "serve.codec_ms": probe["codec_ms"],
            "serve.cold.cpu_ms_per_query": 1e3 * cpu_cold / cold["queries"],
            "serve.warm.cpu_ms_per_query": 1e3 * cpu_warm / warm["queries"],
            "analysis.cache_store_ms": probe["cache_store_ms"],
            "analysis.journal_append_ms": probe["journal_append_ms"],
            "analysis.cache_lookup_ms": probe["cache_lookup_disk_ms"],
            "analysis.cache_lookup_memory_ms": probe["cache_lookup_memory_ms"],
            "analysis.unattributed_s": ratios["analysis.unattributed_s"],
            "serial_query_ms": ratios["ser_ms"],
            "parallel_query_ms": ratios["par_ms"],
            # Warm replies are all cache hits (else they count as
            # failed), so every column the server ran is a cold one.
            "warm_phase_columns": counters.get("serve.columns", 0.0)
            - cold["queries"] - serial["queries"],
            "cold_phase_dedup_hits": counters.get("serve.dedup_hits", 0.0),
            "traced_wall_s": probe["traced_wall_s"],
            "untraced_wall_s": ratios["ser_ms"] * probe["queries"] / 1e3,
            "self_s": probe["self_s"],
            "simulate_max_at": probe["layers"]["simulate_max_at"],
        })
        return metrics, detail


def phase_detail(cold, warm):
    out = {}
    for name, phase in (("cold", cold), ("warm", warm)):
        lat = phase["latencies_ms"]
        out[f"{name}_queries"] = phase["queries"]
        out[f"{name}_qps"] = phase["queries"] / phase["wall_s"]
        out[f"{name}_p50_ms"] = percentile(lat, 50)
        out[f"{name}_p99_ms"] = percentile(lat, 99)
        out[f"{name}_cache_hit_points"] = phase["cache_hit_points"]
        out[f"{name}_dedup_hits"] = phase["dedup_hits"]
    return out


# ---- main --------------------------------------------------------------

def regen_oracles():
    """Rewrites oracles/ from this build's resilience_sweep (maintenance:
    run after a deliberate change to fault semantics)."""
    os.makedirs(os.path.join("perfbench", "oracles"), exist_ok=True)
    for fault_seed in range(1, FAULT_SEEDS + 1):
        out = subprocess.run(
            [BINARIES["resilience_sweep"], "--no-cache", "--faults",
             str(FAULT_RATE), "--fault-seed", str(fault_seed)],
            capture_output=True, text=True, check=True).stdout
        with open(faults_oracle(fault_seed), "w") as f:
            f.write(faults_table(out))


def on_alarm(signum, frame):
    raise BenchError("run exceeded its time limit")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("report", "faults", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-oracles", action="store_true",
                        help="rewrite perfbench/oracles/ and exit")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        bench = check_names(load("BENCHMARK.json"))
        build()
        if args.regen_oracles:
            regen_oracles()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(RUN_LIMIT_S)
        seeds = {"faults": {"fault_seed": faults_seed(args.seed)},
                 "serve": {"query_seed": args.seed}}.get(args.workload, {})
        fp = fingerprint(args, seeds)
        run = Run(args)
        os.makedirs(run.results, exist_ok=True)
        try:
            os.makedirs(run.dir)
            workload = (Serve if args.workload == "serve" else Sweep)(run)
            metrics, detail = (workload.traced() if args.trace
                               else workload.untraced())
        finally:
            for child in list(CHILDREN):
                child.kill()
            shutil.rmtree(run.dir, ignore_errors=True)
        group = bench["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in group if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        result = {
            "correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in group}}
        with open(os.path.join(run.results, run.tag + ".json"), "w") as f:
            json.dump({"fingerprint": fp, "detail": detail,
                       "reasons": run.reasons, "result": result}, f,
                      indent=1)
        for reason in run.reasons:
            print(f"perfbench: failed: {reason}", file=sys.stderr)
        print("perfbench fingerprint " + json.dumps(fp))
        print("perfbench detail " + json.dumps(detail))
        print(json.dumps(result))
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
