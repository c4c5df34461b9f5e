"""Closed-loop SOAP benchmark of semproxy: mock backend and proxy as child
processes, driven by synchronous callers over keep-alive connections.

    python3 bench/run.py --workload hot-large --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import http.client
import itertools
import json
import os
import signal
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

CALLERS = min(2, len(os.sched_getaffinity(0)))  # one connection each
ROUNDS = 5                  # fresh backend + proxy per round
WARMUP_S = 1.0              # per round, before its timed phase
IDLE_S = 2.0                # traced: quiet interval before the first warm-up
DIRECT_SAMPLE = 8           # untraced: distinct keys per round re-asked directly
DIRECT_S = 3.0              # traced: phase replayed straight to the backend
REPLAY_COUNT = 2000         # traced: requests fed through the layer replay
PREBUILD = 4096
MIN_SUCCESSES = 500         # >= 10 samples beyond p98
READY_TIMEOUT_S = 30.0
RUN_CAP_S = 170             # wall-clock cap of one run
CLK_TCK = os.sysconf("SC_CLK_TCK")

MOCK_STATS = "/_mock/stats"
PROXY_HEALTH = "/_sem/health"


class RunError(Exception):
    """The run cannot produce a result."""


# ------------------------------------------------------------------ children

def _die_with_parent() -> None:
    # PR_SET_PDEATHSIG: the child is killed if the benchmark is killed
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def proc_cpu_s(pid: int) -> float:
    """utime + stime of every thread of ``pid``, in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_task_cpu_s(pid: int) -> float:
    """On-CPU time of the live threads of ``pid`` (ns resolution), seconds."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # thread ended while listing
            pass
    return total / 1e9


def proc_status(pid: int) -> dict:
    out = {}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            out[key] = value.split()
    return out


def http_json(port: int, path: str, timeout: float = 10.0) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise RunError(f"GET {path} on port {port}: HTTP {resp.status}")
        return json.loads(body)
    finally:
        conn.close()


def _answers(port: int, path: str) -> bool:
    """True once ``GET path`` gets a 200 status line. The body is not
    awaited: it can sit behind a delayed ACK for 40 ms."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
    try:
        conn.request("GET", path)
        return conn.getresponse().status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()


class Child:
    def __init__(self, role: str, entry: str, args: list[str], log_path: Path):
        self.role = role
        self.log_path = log_path
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(SRC_DIR),
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONUNBUFFERED": "1",
            "LANG": "C.UTF-8",
        }
        code = (f"import sys; from semproxy.cli import {entry}; "
                f"sys.exit({entry}())")
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", code, *args], env=env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=_die_with_parent)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def check_alive(self) -> None:
        if self.proc.poll() is not None:
            tail = self.log_path.read_text(errors="replace")[-2000:]
            raise RunError(f"{self.role} exited with code "
                           f"{self.proc.returncode}:\n{tail}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Pair:
    """One mock backend and one proxy in front of it, on ephemeral ports."""

    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.mock_port = _free_port()
        self.proxy_port = _free_port()
        self.children: list[Child] = []

    def _spawn(self, role, entry, args) -> Child:
        child = Child(role, entry, args, self.work_dir / f"{entry}.log")
        self.children.append(child)
        return child

    def launch(self) -> float:
        """Start both children; seconds until both answer HTTP."""
        wl = self.workload
        config_path = self.work_dir / "proxy.json"
        config_path.write_text(json.dumps(wl.proxy_config))
        self.t_launch = time.perf_counter()
        self.mock = self._spawn(
            "mock backend", "main_mockbackend",
            ["--listen", f"127.0.0.1:{self.mock_port}",
             "--delay-ms", str(wl.delay_ms),
             "--rows", str(wl.rows),
             "--row-cost-us", str(wl.row_cost_us)])
        self.proxy = self._spawn(
            "proxy", "main_proxy",
            ["--listen", f"127.0.0.1:{self.proxy_port}",
             "--backend", f"http://127.0.0.1:{self.mock_port}/",
             "--config", str(config_path)])
        pending = {self.mock: (self.mock_port, MOCK_STATS),
                   self.proxy: (self.proxy_port, PROXY_HEALTH)}
        deadline = self.t_launch + READY_TIMEOUT_S
        while pending:
            for child, (port, path) in list(pending.items()):
                child.check_alive()
                if _answers(port, path):
                    del pending[child]
            if pending:
                if time.perf_counter() > deadline:
                    raise RunError("children not ready within "
                                   f"{READY_TIMEOUT_S:.0f} s")
                time.sleep(0.005)
        return time.perf_counter() - self.t_launch

    def kill(self) -> None:
        for child in self.children:
            child.kill()


# -------------------------------------------------------------------- client

def _connect(port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def closed_loop(port: int, stream, indices, deadline: float,
                tracer=None) -> list[tuple]:
    """``CALLERS`` synchronous callers, each on one keep-alive connection,
    take the next index from ``indices`` until it ends or ``deadline``
    passes. Returns (index, start, end, status, body) per request."""
    from workloads import HEADERS

    results: list[list[tuple]] = [[] for _ in range(CALLERS)]
    errors: list[Exception] = []

    def caller(k: int) -> None:
        out = results[k]
        span = tracer.new_id() if tracer else 0
        t_caller = time.perf_counter_ns()
        try:
            conn = _connect(port)
            try:
                while time.perf_counter() < deadline:
                    i = next(indices, None)
                    if i is None:
                        break
                    body = stream.body(i)
                    time.sleep(stream.think_s(i))
                    t0 = time.perf_counter_ns()
                    try:
                        conn.request("POST", "/", body, HEADERS)
                        resp = conn.getresponse()
                        data = resp.read()
                        status = resp.status
                    except (OSError, http.client.HTTPException) as exc:
                        status, data = None, repr(exc).encode()
                        conn.close()
                        conn = _connect(port)
                    t1 = time.perf_counter_ns()
                    out.append((i, t0, t1, status, data))
                    if tracer:
                        tracer.record("client.request", t0, t1, span, i)
            finally:
                conn.close()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
        if tracer:
            tracer.record(f"client.caller{k}", t_caller,
                          time.perf_counter_ns(), 0, None, span_id=span)

    threads = [threading.Thread(target=caller, args=(k,), daemon=True)
               for k in range(CALLERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise RunError(f"caller failed: {errors[0]!r}")
    return sorted((r for part in results for r in part), key=lambda r: r[1])


class Ledger:
    """What the bench sent to one proxy, and the replies it verified.

    ``verified`` maps parameters to a reply that passed the oracle; it is
    shared by every round of a run, so a later reply for the same
    parameters must carry the same bytes even from another proxy.
    """

    def __init__(self, stream, verified: dict):
        self.stream = stream
        self.verified = verified
        self.sent = 0
        self.keys: set = set()

    def check(self, results) -> list[tuple]:
        """Verify each response. Returns (index, reason, wrong) for each
        failed one; ``wrong`` marks a reply whose content is wrong."""
        import oracle
        failed = []
        rows = self.stream.workload.rows
        for i, _, _, status, body in results:
            params = self.stream.params(i)
            self.sent += 1
            self.keys.add(params)
            if status != 200:
                failed.append((i, f"status {status}: {body[:200]!r}", False))
                continue
            seen = self.verified.get(params)
            if seen is None:
                reason = oracle.check_body(body, params, rows)
                if reason is None:
                    self.verified[params] = body
                else:
                    failed.append((i, reason, True))
            elif body != seen:
                failed.append((i, "bytes differ from an earlier reply "
                                  "for the same parameters", True))
        return failed


def _phase(pair, stream, ledger, indices, seconds, tracer=None) -> dict:
    """One timed closed-loop phase with CPU and counter deltas around it."""
    proxy_cpu0 = proc_cpu_s(pair.proxy.pid)
    mock_cpu0 = proc_cpu_s(pair.mock.pid)
    stats0 = http_json(pair.mock_port, MOCK_STATS)
    health0 = http_json(pair.proxy_port, PROXY_HEALTH)
    client_cpu0 = time.process_time()
    t0 = time.perf_counter()
    results = closed_loop(pair.proxy_port, stream, indices, t0 + seconds, tracer)
    elapsed = time.perf_counter() - t0
    client_cpu = time.process_time() - client_cpu0
    proxy_cpu = proc_cpu_s(pair.proxy.pid) - proxy_cpu0
    mock_cpu = proc_cpu_s(pair.mock.pid) - mock_cpu0
    stats1 = http_json(pair.mock_port, MOCK_STATS)
    health1 = http_json(pair.proxy_port, PROXY_HEALTH)
    status = proc_status(pair.proxy.pid)
    failed = ledger.check(results)
    bad = {f[0] for f in failed}

    def delta(key):
        return health1[key] - health0[key]

    return {
        "results": results, "failed": failed,
        "ok": [r for r in results if r[0] not in bad],
        "elapsed": elapsed, "proxy_cpu": proxy_cpu, "mock_cpu": mock_cpu,
        "client_cpu": client_cpu,
        "calls": stats1["search_calls"] - stats0["search_calls"],
        "distinct": len({stream.params(r[0]) for r in results}),
        "rss_mb": int(status["VmHWM"][0]) / 1024.0,
        "threads": int(status["Threads"][0]),
        "admitted": delta("admitted"),
        "batches": delta("flushed_batches"),
        "cache_hits": delta("cache_hits"),
        "cache_probes": delta("cache_hits") + delta("cache_misses"),
    }


def _pooled(phases: list[dict]) -> dict:
    """End-to-end figures over the same phase of every round."""
    def total(key):
        return sum(p[key] for p in phases)

    ok = [r for p in phases for r in p["ok"]]
    attempted = sum(len(p["results"]) for p in phases)
    n_ok = max(len(ok), 1)
    lat_ms = [(r[2] - r[1]) / 1e6 for r in ok]
    calls = total("calls")
    return {
        "ok": ok, "attempted": attempted,
        "failed": [f for p in phases for f in p["failed"]],
        "throughput_rps": len(ok) / total("elapsed"),
        "latency_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "latency_p98_ms": (statistics.quantiles(lat_ms, n=50,
                                                method="inclusive")[-1]
                           if len(lat_ms) > 1 else 0.0),
        "backend_calls_per_req": calls / n_ok,
        "proxy_cpu_ms_per_req": total("proxy_cpu") * 1000.0 / n_ok,
        "proxy_rss_mb": statistics.median(p["rss_mb"] for p in phases),
        "threads": statistics.median(p["threads"] for p in phases),
        "mock_cpu_ms_per_call": total("mock_cpu") * 1000.0 / max(calls, 1),
        "client_cpu_ms_per_req":
            total("client_cpu") * 1000.0 / max(attempted, 1),
        "batch_size_mean": total("admitted") / max(total("batches"), 1),
        "cache_hit_ratio": (total("cache_hits") / total("cache_probes")
                            if total("cache_probes") else 0.0),
        "saved": attempted - calls,
        "savable": attempted - total("distinct"),
    }


def _direct(pair, stream, ledger, indices, deadline):
    """Send ``indices`` straight to the backend; each reply must equal the
    proxy's bytes for the same parameters. Returns (replies, errors)."""
    import oracle
    results = closed_loop(pair.mock_port, stream, iter(indices), deadline)
    errors = []
    for i, _, _, status, body in results:
        params = stream.params(i)
        proxied = ledger.verified.get(params)
        if status != 200:
            errors.append(f"direct request {i}: status {status}")
        elif proxied is not None and body != proxied:
            errors.append(f"request {i}: proxy bytes differ from the "
                          "backend's direct answer")
        elif proxied is None:
            reason = oracle.check_body(body, params, stream.workload.rows)
            if reason:
                errors.append(f"direct request {i}: {reason}")
    return results, errors


def _round(stream, work_dir, indices, verified, phase_s, tracer, idle_s):
    """Launch a fresh backend and proxy, warm up, run the timed phase (an
    untraced and, with ``tracer``, a traced one), check, and stop them."""
    import oracle
    wl = stream.workload
    pair = Pair(wl, work_dir)
    try:
        out = {"setup": pair.launch(), "idle_cpu_ms_per_s": None}
        if idle_s:
            cpu0 = proc_task_cpu_s(pair.proxy.pid)
            time.sleep(idle_s)
            out["idle_cpu_ms_per_s"] = ((proc_task_cpu_s(pair.proxy.pid) - cpu0)
                                        * 1000 / idle_s)
        ledger = Ledger(stream, verified)
        out["warm_failed"] = ledger.check(closed_loop(
            pair.proxy_port, stream, indices, time.perf_counter() + WARMUP_S))
        out["main"] = _phase(pair, stream, ledger, indices, phase_s)
        out["traced"] = (_phase(pair, stream, ledger, indices, phase_s, tracer)
                         if tracer else None)

        # byte equality with the backend's direct answer
        if tracer:
            sample = [r[0] for r in out["traced"]["results"]]
            deadline = time.perf_counter() + DIRECT_S / ROUNDS
        else:
            firsts = {}
            for r in out["main"]["results"]:
                firsts.setdefault(stream.params(r[0]), r[0])
            sample = list(firsts.values())[:DIRECT_SAMPLE]
            deadline = float("inf")
        out["direct"], errors = _direct(pair, stream, ledger, sample, deadline)

        stats = http_json(pair.mock_port, MOCK_STATS)
        health = http_json(pair.proxy_port, PROXY_HEALTH)
        out["health"] = health
        errors += oracle.check_ledger(health)
        if health["requests"] != ledger.sent:
            errors.append(f"proxy counted {health['requests']} requests, "
                          f"bench sent {ledger.sent}")
        direct_ok = sum(r[3] == 200 for r in out["direct"])
        errors += oracle.check_counts(
            requests=ledger.sent,
            backend_calls=stats["search_calls"] - direct_ok,
            distinct_keys=len(ledger.keys), exact_calls=wl.exact_calls)
        out["errors"] = errors
        return out
    finally:
        pair.kill()


# ---------------------------------------------------------------------- run

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, Stream

    wl = WORKLOADS[workload_name]
    stream = Stream(wl, seed)
    tag = f"{wl.name}-{seed}-{os.getpid()}"
    work_dir = OUT_DIR / tag  # child logs and config, removed after a run
    work_dir.mkdir(parents=True)
    # a traced run adds a traced phase of the same length to each round
    phase_s = seconds / ROUNDS
    tracer = None
    if trace:
        from layers import Tracer
        tracer = Tracer()
    stream.prebuild(PREBUILD)
    indices = itertools.count()
    verified: dict = {}
    rounds = [_round(stream, work_dir, indices, verified, phase_s, tracer,
                     IDLE_S if trace and r == 0 else 0.0)
              for r in range(ROUNDS)]
    shutil.rmtree(work_dir)

    main = _pooled([r["main"] for r in rounds])
    live = _pooled([r["traced"] for r in rounds]) if trace else main
    errors = [e for r in rounds for e in r["errors"]]
    for r in rounds:
        for i, why, wrong in r["warm_failed"] + r["main"]["failed"] + (
                r["traced"]["failed"] if trace else []):
            print(f"bench: {wl.name}: request {i} failed: {why}",
                  file=sys.stderr)
            if wrong:
                errors.append(f"request {i}: wrong reply")
    for phase in (main, live):
        if len(phase["ok"]) < MIN_SUCCESSES:
            errors.append(f"{len(phase['ok'])} successes, fewer than "
                          f"{MIN_SUCCESSES} for a p98")
    for e in errors:
        print(f"bench: {wl.name}: {e}", file=sys.stderr)
    setup = [r["setup"] for r in rounds]
    print(f"bench: {wl.name} seed {seed}: {len(main['ok'])} ok of "
          f"{main['attempted']}, setup {[round(s, 3) for s in setup]}",
          file=sys.stderr)

    if not trace:
        main["setup_s"] = statistics.median(setup)
        return _result(not errors, main, main, "end_to_end")

    from layers import replay
    direct_lat = [(d[2] - d[1]) / 1e6 for r in rounds for d in r["direct"]
                  if d[3] == 200]
    direct_p50 = statistics.median(direct_lat) if direct_lat else 0.0
    values = replay(
        tracer, stream, rounds[0]["traced"]["results"][0][0], REPLAY_COUNT,
        batch_size_mean=live["batch_size_mean"],
        latencies_ns=[r[2] - r[1] for r in live["ok"]],
        body_sizes=[len(r[4]) for r in live["ok"]],
        service_ns=int(direct_p50 * 1e6))
    tracer.write(OUT_DIR / f"{tag}-spans.jsonl")
    values.update({
        "windowing.window_wait_mean_ms":
            statistics.median(r["health"]["window_wait_mean_ms"] for r in rounds),
        "windowing.window_wait_p95_ms":
            statistics.median(r["health"]["window_wait_p95_ms"] for r in rounds),
        "windowing.batch_size_mean": live["batch_size_mean"],
        "dedup.cache_hit_ratio": live["cache_hit_ratio"],
        "dedup.coalesce_efficiency":
            live["saved"] / live["savable"] if live["savable"] else 0.0,
        "proxy.added_p50_ms": live["latency_p50_ms"] - direct_p50,
        "proxy.idle_cpu_ms_per_s": rounds[0]["idle_cpu_ms_per_s"],
        "proxy.threads": live["threads"],
        "mock_backend.direct_p50_ms": direct_p50,
        "mock_backend.cpu_ms_per_call": live["mock_cpu_ms_per_call"],
        "client.cpu_ms_per_req": live["client_cpu_ms_per_req"],
        "trace.overhead_latency_p50_ms":
            live["latency_p50_ms"] - main["latency_p50_ms"],
        "trace.overhead_throughput_pct":
            100.0 * (main["throughput_rps"] - live["throughput_rps"])
            / main["throughput_rps"],
    })
    return _result(not errors, live, values, "per_layer")


def _result(correct: bool, phase: dict, values: dict, kind: str) -> dict:
    """The result line; metric names and units come from BENCHMARK.json."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {
        "correct": correct,
        "attempted": phase["attempted"],
        "failed": len(phase["failed"]),
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]}
                    for m in spec[kind]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    if not (SRC_DIR / "semproxy" / "__init__.py").is_file():
        print(f"bench: {args.workload}: no semproxy sources at {SRC_DIR}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def on_signal(signum, frame):
        raise RunError(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGALRM, on_signal)
    signal.alarm(RUN_CAP_S)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as exc:
        traceback.print_exc()
        print(f"bench: workload {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    if not result["correct"]:
        print(f"bench: workload {args.workload}: output check failed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
