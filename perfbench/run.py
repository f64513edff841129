"""The T-DAT benchmark: what users wait on, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  It builds bin/tdat_cli.exe and
perfbench/bench_tool.exe with dune, generates the workload's inputs from
the seed, and then

  --trace 0  runs the real binaries (`tdat analyze`, `tdat study`,
             `tdat serve`, all at one job) for S seconds, checks every
             output, and prints the end-to-end metrics;
  --trace 1  replays every layer in process with spans around each call
             (bench_tool.exe layers) plus a daemon session whose requests
             ask for the daemon's own stage timings, and prints the
             per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --smoke runs all three
workloads on small inputs for a second each.  README.md in this
directory lists every metric, workload and the layer map.
"""

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("analyze_fleet", "study_archive", "serve_mixed")
CLI = os.path.join("_build", "default", "bin", "tdat_cli.exe")
TOOL = os.path.join("_build", "default", "perfbench", "bench_tool.exe")
WORK_ROOT = ".perfbench_work"

# Set-up is measured several times per run and reported as the median;
# batch set-ups are spread through the run.
SETUP_REPEATS = 21
SERVE_SETUP_REPEATS = 11
# serve_mixed traffic: share of requests sent to the hot set, and share
# preceded by a rename-over rewrite of one rewritable capture.
HOT_SHARE = 0.7
REWRITE_SHARE = 0.05
SERVE_CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark cannot run here (not a checkout, build failed)."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --- build and helpers -------------------------------------------------------


def check_checkout():
    for path in ("dune-project", os.path.join("bin", "tdat_cli.ml"),
                 os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            raise BenchError(
                "not a T-DAT source checkout (missing %s); run from its root"
                % path)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/tdat_cli.exe",
         "./perfbench/bench_tool.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        raise BenchError("dune build failed")


def tool(*args):
    proc = subprocess.run([TOOL] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise BenchError("bench_tool %s failed" % args[0])
    return proc.stdout.decode()


def generate(family, seed, directory, smoke):
    tool("gen", family, str(seed), directory, *(["--smoke"] if smoke else []))
    with open(os.path.join(directory, "manifest.json")) as f:
        return json.load(f)


def host_facts():
    facts = {"nproc": len(os.sched_getaffinity(0))}
    facts.update(json.loads(tool("host")))
    return facts


def read(path):
    with open(path, "rb") as f:
        return f.read()


# --- batch invocations -------------------------------------------------------


def invoke(argv, stderr):
    """One CLI invocation as a fresh process: (wall seconds, exit code,
    stdout, peak RSS in KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return wall, proc.returncode, out, usage.ru_maxrss


def batch_loop(op, setup, seconds, stderr):
    """Invoke op's argv back to back for `seconds`, every output through
    op's check.  SETUP_REPEATS invocations of setup's argv (the minimal
    input) are spread evenly through the run, so set-up time samples the
    same host phases as the operations; their time is left out of the
    operations' wall time.  Returns the per-invocation samples, the
    failure count, the measured wall time and the median set-up time."""
    walls, rss, setups = [], [], []
    failed = 0
    setup_spent = 0.0
    start = time.perf_counter()

    def measure_setup():
        wall, code, out, _ = invoke(setup[0], stderr)
        if code != 0 or not setup[1](out):
            raise BenchError("set-up invocation failed: %s"
                             % " ".join(setup[0]))
        setups.append(wall)
        return wall

    while True:
        elapsed = time.perf_counter() - start - setup_spent
        if elapsed >= seconds:
            break
        if len(setups) < SETUP_REPEATS and \
                elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setup_spent += measure_setup()
            continue
        wall, code, out, maxrss = invoke(op[0], stderr)
        if code != 0 or not op[1](out):
            failed += 1
            continue
        walls.append(wall)
        rss.append(maxrss)
    while len(setups) < SETUP_REPEATS:
        measure_setup()
    return walls, rss, failed, elapsed, stats.median(setups)


def warn_unsupported(label, n):
    if not stats.supported(n, 90):
        log("only %d %s samples: fewer than %d beyond p90" % (
            n, label, stats.MIN_BEYOND))


def batch_metrics(walls, rss, setup_s, elapsed):
    warn_unsupported("invocation", len(walls))
    op = stats.median(walls) * 1e3
    return {
        "setup_s": (setup_s, "s"),
        "op_ms": (op, "ms"),
        "op_p90_ms": (stats.percentile(walls, 90) * 1e3, "ms"),
        "ops_per_s": (len(walls) / elapsed, "1/s"),
        # A batch invocation keeps nothing between calls: it has one
        # class, so both class medians are the median invocation.
        "warm_p50_ms": (op, "ms"),
        "cold_p50_ms": (op, "ms"),
        "rss_mb": (stats.median(rss) / 1024.0, "MiB"),
    }


def run_analyze_fleet(seed, seconds, work, smoke, stderr):
    m = generate("analyze_fleet", seed, work, smoke)
    fleet, minimal = m["fleet"], m["minimal"]
    expected = read(os.path.join(work, fleet["expected"]))
    minimal_expected = read(os.path.join(work, minimal["expected"]))

    def argv(entry):
        return [CLI, "analyze", "-j", "1", os.path.join(work, entry["pcap"])]

    walls, rss, failed, elapsed, setup_s = batch_loop(
        (argv(fleet), lambda out: out == expected),
        (argv(minimal), lambda out: out == minimal_expected), seconds, stderr)
    return walls, failed, batch_metrics(walls, rss, setup_s, elapsed) \
        if walls else None


def study_matches(out, truth):
    """The report finds every generated transfer and nothing else: no
    churn burst, no split or merged transfer."""
    try:
        found = sorted((t["peer_as"], t["peer_ip"], t["start_us"],
                        t["end_us"], t["prefixes"], t["messages"])
                       for t in json.loads(out)["transfers"])
    except (ValueError, KeyError, TypeError):
        return False
    return found == sorted(tuple(t) for t in truth)


def run_study_archive(seed, seconds, work, smoke, stderr):
    m = generate("study_archive", seed, work, smoke)
    archives = [os.path.join(work, a) for a in m["archives"]]
    verified = []

    # The first output is checked against the ground truth; the rest
    # must be byte-identical to it.
    def check(out):
        if verified:
            return out == verified[0]
        if study_matches(out, m["truth"]):
            verified.append(out)
            return True
        return False

    base = [CLI, "study", "-j", "1", "--json"]
    walls, rss, failed, elapsed, setup_s = batch_loop(
        (base + archives, check),
        (base + [os.path.join(work, m["minimal"])],
         lambda out: study_matches(out, m["minimal_truth"])), seconds, stderr)
    return walls, failed, batch_metrics(walls, rss, setup_s, elapsed) \
        if walls else None


# --- the serve daemon --------------------------------------------------------


class Conn:
    """One client connection speaking line-delimited JSON."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.pending = None  # (request, send time, expected output)

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def fill(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise BenchError("daemon closed the connection")
        self.buf += chunk

    def next_line(self):
        if b"\n" not in self.buf:
            return None
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def rpc(self, obj, timeout=REQUEST_TIMEOUT_S):
        self.send(obj)
        deadline = time.monotonic() + timeout
        while True:
            line = self.next_line()
            if line is not None:
                return json.loads(line)
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.sock], [], [], left)[0]:
                raise BenchError("daemon did not answer %r" % obj.get("cmd"))
            self.fill()

    def close(self):
        self.sock.close()


class Daemon:
    """`tdat serve --jobs 1` as its own process on a Unix socket."""

    def __init__(self, work, stderr):
        self.sock_path = os.path.join(work, "serve.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--socket", self.sock_path, "--jobs", "1"],
            stdout=subprocess.DEVNULL, stderr=stderr)
        deadline = time.monotonic() + 30
        while True:
            try:
                conn = Conn(self.sock_path)
                ok = conn.rpc({"cmd": "ping", "id": 0}).get("ok")
                conn.close()
                if ok:
                    break
            except (OSError, BenchError):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("tdat serve did not answer ping")
            time.sleep(0.0005)
        # Spawn to the first successful ping.
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Captures:
    """The served capture set: each path's current variant, its expected
    output, and the rename-over rewrite."""

    def __init__(self, manifest, work):
        self.entries = []
        for c in manifest["captures"]:
            variants = [
                (os.path.join(work, v["pcap"]),
                 read(os.path.join(work, v["expected"])).decode())
                for v in c["variants"]]
            path = os.path.abspath(os.path.join(work, c["path"]))
            shutil.copyfile(variants[0][0], path)
            self.entries.append(
                {"path": path, "hot": c["hot"], "variants": variants,
                 "current": 0})
        self.hot = [e for e in self.entries if e["hot"]]
        self.cold = [e for e in self.entries if not e["hot"]]
        self.rewritable = [e for e in self.entries if len(e["variants"]) > 1]

    def rewrite(self, entry):
        """Write the next variant beside the served path, then rename it
        over the path: readers see the old file or the new one, never a
        torn one."""
        entry["current"] = (entry["current"] + 1) % len(entry["variants"])
        tmp = entry["path"] + ".tmp"
        shutil.copyfile(entry["variants"][entry["current"]][0], tmp)
        os.replace(tmp, entry["path"])

    def expected(self, entry):
        return entry["variants"][entry["current"]][1]


def serve_load(daemon, captures, seconds, rng, timings):
    """Two closed-loop connections sending analyze requests for
    `seconds`.  Returns the per-request records and the failure count."""
    conns = [Conn(daemon.sock_path) for _ in range(SERVE_CLIENTS)]
    records = []
    failed = busy = 0
    next_id = [1]

    def in_flight():
        return {c.pending[0]["path"] for c in conns if c.pending}

    def send(conn):
        if captures.rewritable and rng.random() < REWRITE_SHARE:
            taken = in_flight()
            idle = [e for e in captures.rewritable if e["path"] not in taken]
            if idle:
                captures.rewrite(rng.choice(idle))
        pool = captures.hot if rng.random() < HOT_SHARE else captures.cold
        entry = rng.choice(pool)
        req = {"cmd": "analyze", "id": next_id[0], "path": entry["path"]}
        if timings:
            req["timings"] = True
        next_id[0] += 1
        # The expected output is fixed at send time: a capture is only
        # rewritten while no request for it is in flight.
        conn.pending = (req, time.perf_counter(), captures.expected(entry))
        conn.send(req)

    start = time.perf_counter()
    for c in conns:
        send(c)
    last = start
    while any(c.pending for c in conns):
        ready, _, _ = select.select([c.sock for c in conns], [], [],
                                    REQUEST_TIMEOUT_S)
        if not ready:
            failed += sum(1 for c in conns if c.pending)
            break
        for c in conns:
            if c.sock not in ready:
                continue
            c.fill()
            line = c.next_line()
            while c.pending and line is not None:
                now = time.perf_counter()
                req, sent, expected = c.pending
                c.pending = None
                resp = json.loads(line)
                result = resp.get("result") or {}
                if (not resp.get("ok") or resp.get("id") != req["id"]
                        or result.get("output") != expected):
                    failed += 1
                    error = resp.get("error") or {}
                    if error.get("status") == 429:
                        busy += 1
                    else:
                        log("serve mismatch or error on %s: %s" % (
                            req["path"], json.dumps(error)[:200]))
                else:
                    records.append({
                        "ms": (now - sent) * 1e3,
                        "hit": bool(result.get("cache_hit")),
                        "timings": result.get("timings")})
                last = now
                if now - start < seconds:
                    send(c)
                line = c.next_line()
    for c in conns:
        c.close()
    return records, failed, busy, last - start


def serve_session(seed, seconds, work, smoke, stderr, timings):
    m = generate("serve_mixed", seed, work, smoke)
    captures = Captures(m, work)
    setups = []
    for _ in range(SERVE_SETUP_REPEATS):
        d = Daemon(work, stderr)
        setups.append(d.setup_s)
        d.stop()
    daemon = Daemon(work, stderr)
    try:
        records, failed, busy, elapsed = serve_load(
            daemon, captures, seconds, random.Random(seed), timings)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return records, failed, elapsed, stats.median(setups), rss, busy


def run_serve_mixed(seed, seconds, work, smoke, stderr):
    records, failed, elapsed, setup_s, rss, _ = serve_session(
        seed, seconds, work, smoke, stderr, timings=False)
    if not records:
        return records, failed, None
    ms = [r["ms"] for r in records]
    warm = [r["ms"] for r in records if r["hit"]]
    cold = [r["ms"] for r in records if not r["hit"]]
    warn_unsupported("warm", len(warm))
    warn_unsupported("cold", len(cold))
    log("serve_mixed: %d requests (%d warm, %d cold) in %.2f s" % (
        len(ms), len(warm), len(cold), elapsed))
    return ms, failed, {
        "setup_s": (setup_s, "s"),
        "op_ms": (stats.median(ms), "ms"),
        "op_p90_ms": (stats.percentile(ms, 90), "ms"),
        "ops_per_s": (len(ms) / elapsed, "1/s"),
        "warm_p50_ms": (stats.median(warm) if warm else float("nan"), "ms"),
        "cold_p50_ms": (stats.median(cold) if cold else float("nan"), "ms"),
        "rss_mb": (rss, "MiB"),
    }


# --- the traced run ----------------------------------------------------------

def layer_units(name):
    suffix = name.rsplit(".", 1)[-1]
    return {"ms": "ms", "self_ms": "ms", "us_per_pkt": "us/pkt",
            "us_per_pkt_small": "us/pkt", "minor_words": "words",
            "major_words": "words",
            "records_per_s": "records/s",
            "words_per_record": "words/record"}[suffix]


def run_traced(workload, seed, seconds, work, smoke, stderr):
    for family in WORKLOADS:
        if family != "serve_mixed":
            generate(family, seed, os.path.join(work, family), smoke)
    # serve_session generates serve_mixed's inputs itself.
    records, failed, _, _, _, busy = serve_session(
        seed, seconds, os.path.join(work, "serve_mixed"), smoke, stderr,
        timings=True)
    trace_out = os.path.join(WORK_ROOT, "trace-%s-%d.json" % (workload, seed))
    samples = json.loads(tool("layers", workload, work, trace_out))
    log("spans written to %s" % trace_out)
    metrics = {}
    for name, xs in samples.items():
        if not name.startswith("overhead."):
            metrics[name] = (stats.median(xs), layer_units(name))
    # The two-size view: per-packet cost on the fleet capture over the
    # same on the small captures, per core stage.
    for name in [n for n in metrics if n.startswith("core.")
                 and n.endswith(".us_per_pkt_small")]:
        stage = name[:-len(".us_per_pkt_small")]
        small = metrics[name][0]
        metrics[stage + ".size_ratio"] = (
            metrics[stage + ".us_per_pkt"][0] / small if small > 0
            else float("nan"), "ratio")
    metrics["trace_overhead_pct"] = (stats.median(samples["overhead.pct"]),
                                     "%")
    # The daemon's own stage split, per cache class.
    for cls, hit in (("warm", True), ("cold", False)):
        rs = [r for r in records if r["hit"] == hit and r["timings"]]
        for stage in ("queue_wait", "decode", "analyze", "render"):
            xs = [r["timings"][stage + "_us"] / 1e3 for r in rs]
            metrics["serve.%s.%s.ms" % (cls, stage)] = (
                stats.median(xs) if xs else float("nan"), "ms")
    transport = [r["ms"] - r["timings"]["total_us"] / 1e3
                 for r in records if r["timings"]]
    metrics["serve.transport.ms"] = (
        stats.median(transport) if transport else float("nan"), "ms")
    metrics["serve.cache_hit_ratio"] = (
        sum(1 for r in records if r["hit"]) / len(records)
        if records else float("nan"), "ratio")
    metrics["serve.busy_rejections"] = (busy, "count")
    return len(records) + failed, failed, metrics


# --- main --------------------------------------------------------------------


def run_one(workload, seed, seconds, trace, smoke):
    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log_path = os.path.join(work, "stderr.log")
    with open(log_path, "wb") as stderr:
        if trace:
            attempted, failed, metrics = run_traced(
                workload, seed, seconds, work, smoke, stderr)
        else:
            runner = {"analyze_fleet": run_analyze_fleet,
                      "study_archive": run_study_archive,
                      "serve_mixed": run_serve_mixed}[workload]
            ok, failed, metrics = runner(seed, seconds, work, smoke, stderr)
            attempted = len(ok) + failed
    if failed:
        sys.stderr.write(read(log_path).decode(errors="replace")[-4000:])
    shutil.rmtree(work, ignore_errors=True)
    return attempted, failed, metrics


def result_line(attempted, failed, metrics):
    metrics = metrics or {}
    # A metric without samples (an empty class) voids the run.
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    correct = bool(metrics) and finite and failed == 0 and attempted > 0
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v if math.isfinite(v) else None,
                           "unit": u}
                    for name, (v, u) in sorted(metrics.items())},
    })


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on small inputs briefly")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the daemon is always stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    try:
        check_checkout()
        build()
        os.makedirs(WORK_ROOT, exist_ok=True)
        print("host: " + json.dumps(host_facts()), flush=True)
        if args.smoke:
            ok = True
            for w in WORKLOADS:
                for trace in (0, 1):
                    attempted, failed, metrics = run_one(
                        w, args.seed, 1.0, trace, smoke=True)
                    line = result_line(attempted, failed, metrics)
                    print("%s trace=%d: %s" % (w, trace, line), flush=True)
                    ok = ok and json.loads(line)["correct"]
            print(json.dumps({"smoke": "ok" if ok else "failed"}))
            return 0 if ok else 1
        attempted, failed, metrics = run_one(
            args.workload, args.seed, args.seconds, args.trace, smoke=False)
    except BenchError as e:
        log(str(e))
        return 2
    line = result_line(attempted, failed, metrics)
    print(line, flush=True)
    # A wrong output fails the run, not only the result line.
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
