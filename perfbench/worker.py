"""One benchmark round: set up, run the timed closed loop, check outputs.

Started by ``run.py`` as a fresh process per round, with the round's
configuration as one JSON argument.  It prints exactly two lines on
stdout: ``READY`` once set-up is done (the parent times set-up up to
that line) and, at the end, one JSON document with the round's raw
numbers.  Diagnostics go to stderr.

Set-up, in order: spawn the server (remote workloads; it boots while
this process imports and builds inputs), import ``repro``, build the
seeded request plan, wait for the server's readiness banner, connect,
pre-populate its caches, ``gc.collect()``.  The timed phase sends the
plan's requests one at a time from this one caller.  Output checks run
after timing and never count towards any timing.
"""

from __future__ import annotations

import gc
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
_BANNER = re.compile(rb"listening on [^:\s]+:(\d+)")


def log(message: str) -> None:
    print(f"[perfbench worker] {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class Server:
    """A ``repro serve --port 0`` child process.

    Traced rounds start it through ``traced_serve.py``, which installs
    the layer shims first and writes its per-layer totals to
    ``dump_path`` when SIGTERM drains it.
    """

    def __init__(self, cfg: Dict[str, Any]) -> None:
        args = ["serve", "--host", "127.0.0.1", "--port", "0", "--wire", "binary"]
        env = dict(os.environ)
        if cfg["workload"] == "serve_mix":
            args += ["--store", os.path.join(cfg["run_dir"], "store")]
            env["REPRO_REPAIR"] = "1"
        else:
            args += ["--no-store"]
        self.dump_path: Optional[str] = None
        if cfg["trace"]:
            self.dump_path = os.path.join(cfg["run_dir"], "server-layers.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"), self.dump_path, *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        self._stderr = open(os.path.join(cfg["run_dir"], "server.log"), "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, env=env
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> int:
        """Block on the readiness banner (printed after the bind)."""
        line = self.proc.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        # Keep the pipe drained so a chatty server can never block.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()
        return self.port

    def cpu_s(self) -> float:
        """On-CPU time of all the server's threads (nanosecond
        ``schedstat`` counters; tick-based ``stat`` is too coarse)."""
        total = 0
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:  # the thread just exited
                pass
        return total / 1e9

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGTERM (graceful drain), wait, and read the layer dump."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._stderr.close()
        if self.dump_path is None:
            return None
        with open(self.dump_path) as fh:
            return json.load(fh)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _counter_delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, float]:
    """Timed-phase deltas of the cache_stats counters the report uses."""

    def pick(stats: Dict[str, Any]) -> Dict[str, float]:
        wire = stats.get("wire", {})
        transport = stats.get("wire_transport", {})
        lru = stats.get("lru", {})
        repair = stats.get("repair", {})
        store = stats.get("store", {})
        return {
            "lru_hits": lru.get("hits", 0),
            "lru_misses": lru.get("misses", 0),
            "wire_hits": wire.get("hits", 0),
            "bytes_in": transport.get("binary_bytes_in", 0),
            "bytes_out": transport.get("binary_bytes_out", 0),
            "repair_attempts": repair.get("attempts", 0),
            "repair_hits": repair.get("hits", 0),
            "repair_aborts": repair.get("aborts", 0),
            "store_puts": store.get("puts", 0),
            "store_bytes": store.get("total_bytes", 0),
        }

    a, b = pick(after), pick(before)
    return {key: a[key] - b[key] for key in a}


def verify_rect2d(instance: Any, result: Any) -> None:
    """The registered rect2d verifier's checks, vectorized.

    The registered verifier also computes each machine's peak coverage
    over its compressed grid, which is cubic in the machine's size (about
    a minute per result at n = 2400).  Threads whose rectangles are
    pairwise disjoint already bound every point's coverage by the thread
    count, so checking exact coverage of the instance, at most ``g``
    threads per machine and disjointness within each thread is as strong.
    """
    import numpy as np

    machines = result.detail["machines"]
    placed = sorted(p for machine in machines for thread in machine for p in thread)
    if placed != list(range(instance.n)):
        raise AssertionError("2-D schedule does not cover the instance exactly")
    for machine in machines:
        if len(machine) > instance.g:
            raise AssertionError("2-D machine has more than g threads")
        for thread in machine:
            box = np.array([
                (r.x0, r.y0, r.x1, r.y1) for r in (instance.rects[p] for p in thread)
            ]).reshape(-1, 4)
            overlap = (
                np.minimum.outer(box[:, 2], box[:, 2]) > np.maximum.outer(box[:, 0], box[:, 0])
            ) & (
                np.minimum.outer(box[:, 3], box[:, 3]) > np.maximum.outer(box[:, 1], box[:, 1])
            )
            np.fill_diagonal(overlap, False)
            if overlap.any():
                raise AssertionError("overlapping rectangles on one thread")


def verify(plan: Any, result: Any) -> None:
    """The family's registered verifier (rect2d: its vectorized twin)."""
    from repro.engine.engine import _verified

    if plan.spec.name == "rect2d":
        verify_rect2d(plan.instance, result)
    else:
        _verified(plan, result)


class Checker:
    """Output checks, run after the timed phase.

    Local results are re-checked with the family's registered
    ``verify``; remote results are byte-compared with a local oracle
    solve (``repro.loadgen.validate.OracleValidator``), then verified
    once per content.  Both also accumulate Σcost and the Observation
    2.1 lower bound over the MinBusy and capacity items.
    """

    def __init__(self, remote: bool) -> None:
        self.remote = remote
        self.validated = 0
        self.errors: List[str] = []
        self.cost = 0.0
        self.lower_bound = 0.0
        self._bounds: Dict[int, float] = {}
        self._expected: Dict[int, Any] = {}
        self.oracle = None
        if remote:
            from repro.loadgen.validate import OracleValidator

            self.oracle = OracleValidator()

    def _bound(self, family: str, instance: Any) -> float:
        key = id(instance)
        if key not in self._bounds:
            if family == "capacity":
                from repro.capacity.demands import demand_lower_bound

                self._bounds[key] = demand_lower_bound(instance)
            else:
                from repro.core.bounds import combined_lower_bound

                self._bounds[key] = combined_lower_bound(instance)
        return self._bounds[key]

    def check(self, request: Any, result: Any) -> None:
        from repro.engine.engine import plan_solve

        try:
            if self.remote:
                self._check_remote(request, result)
            else:
                plan = plan_solve(request.instance, request.family, request.params)
                if result.fingerprint != plan.fingerprint:
                    raise AssertionError("fingerprint differs from the plan's")
                verify(plan, result)
            if request.family in ("minbusy", "capacity"):
                self.lower_bound += self._bound(request.family, request.instance)
                self.cost += float(result.cost)
            self.validated += 1
        except Exception as exc:  # every mismatch is counted, then reported
            self.errors.append(f"{request.kind}/{request.family}: {type(exc).__name__}: {exc}")

    def _check_remote(self, request: Any, result: Any) -> None:
        from repro.engine.engine import plan_solve
        from repro.io import objective_instance_to_dict
        from repro.loadgen.validate import canonical_result
        from repro.service.protocol import result_to_doc

        key = id(request.instance)
        expected = self._expected.get(key)
        if expected is None:
            # The document the client sent: RemoteSession serializes the
            # normalized instance exactly like this.
            plan = plan_solve(request.instance, request.family, request.params)
            doc, wire_params = objective_instance_to_dict(plan.instance, plan.spec.name)
            expected = self.oracle.expected(request.family, doc, wire_params)
            self._expected[key] = expected
        if expected.error is not None:
            raise AssertionError(f"oracle rejects the content: {expected.error}")
        if canonical_result(result_to_doc(result)) != expected.canonical:
            raise AssertionError("served result differs from the oracle's bytes")
        if not expected.verified:
            verify(expected.plan, result)
            expected.verified = True


# ----------------------------------------------------------------------
# the round
# ----------------------------------------------------------------------


def run_round(cfg: Dict[str, Any]) -> Dict[str, Any]:
    workload = cfg["workload"]
    remote = workload != "cold_firstfit"
    server = Server(cfg) if remote else None
    try:
        return _run(cfg, server)
    finally:
        if server is not None and server.proc.poll() is None:
            server.proc.kill()
            server.proc.wait()


def _run(cfg: Dict[str, Any], server: Optional[Server]) -> Dict[str, Any]:
    import plans  # imports repro: after the server was spawned

    tracer = None
    if cfg["trace"]:
        tracer = layers.Tracer()
        layers.install(tracer)

    workload, seed, rnd, count, scale = (
        cfg["workload"], cfg["seed"], cfg["round"], cfg["count"], cfg["scale"]
    )

    # -- set-up --------------------------------------------------------
    if server is None:
        from repro.api import EngineConfig, Session

        client: Any = Session(EngineConfig(store_path=None, backend="serial"))
        requests = plans.cold_firstfit(seed, rnd, count, scale)
    else:
        from repro.api import RemoteSession

        if workload == "warm_remote":
            instances = plans.warm_instances(seed, rnd, scale)
            requests = plans.warm_remote(seed, rnd, count, instances)
            # Twice each: the second send carries the interned column
            # references every later repeat carries, so the timed
            # requests all replay from the server's wire tier.
            warmup = [(inst, "minbusy", {}) for inst in instances] * 2
        else:
            mix = plans.serve_mix(seed, rnd, count, scale)
            requests = mix.requests
            seen = {}
            for req in requests:
                if req.kind == "repeat":
                    seen.setdefault(id(req.instance), (req.instance, req.family, req.params))
            warmup = list(seen.values()) + [(inst, fam, {}) for fam, inst in mix.bases]
        port = server.wait_ready()
        client = RemoteSession(port=port, wire="binary", timeout=120)
        for inst, family, params in warmup:
            client.solve(inst, family, **params)
    gc.collect()
    print("READY", flush=True)

    # -- timed phase ---------------------------------------------------
    stats_before = client.cache_stats()
    if server is not None:
        client.ping()  # marks the start for the traced server's totals
        server_cpu0 = server.cpu_s()
    snap0 = tracer.snapshot() if tracer is not None else None
    cpu0 = time.process_time()
    results: List[Any] = []
    latencies: List[float] = []
    failures: List[str] = []
    clock = time.perf_counter
    t_start = clock()
    for req in requests:
        t0 = clock()
        try:
            result = client.solve(req.instance, req.family, **req.params)
        except Exception as exc:  # a failed request is counted as missing
            result = None
            failures.append(f"{req.kind}/{req.family}: {type(exc).__name__}: {exc}")
        latencies.append((clock() - t0) * 1e3)
        results.append(result)
    wall_s = clock() - t_start
    cpu_s = time.process_time() - cpu0
    snap1 = tracer.snapshot() if tracer is not None else None
    client_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out: Dict[str, Any] = {
        "requests": len(requests),
        "wall_s": wall_s,
        "lat_ms": latencies,
        "kinds": [str(r.kind) for r in requests],
        "client_cpu_s": cpu_s,
        "client_rss_kb": client_rss_kb,
        "server_cpu_s": 0.0,
        "server_rss_kb": 0,
    }
    if server is not None:
        out["server_cpu_s"] = server.cpu_s() - server_cpu0
        client.ping()  # marks the end
        out["server_rss_kb"] = server.peak_rss_kb()
    out["counters"] = _counter_delta(client.cache_stats(), stats_before)
    if server is not None:
        client.close()
        dump = server.stop()
        if dump is not None:
            marks = dump["marks"]
            out["layers_server"] = layers.delta(marks[-1], marks[0])
    if tracer is not None:
        out["layers_client"] = layers.delta(snap1, snap0)

    # -- output checks (untimed) ---------------------------------------
    t_checks = clock()
    checker = Checker(remote=server is not None)
    for req, result in zip(requests, results):
        if result is not None:
            checker.check(req, result)
    log(
        f"{workload} round {rnd}: timed {wall_s:.2f}s, "
        f"checks {clock() - t_checks:.2f}s"
    )
    out["attempted"] = len(requests)
    out["validated"] = checker.validated
    out["errors"] = (failures + checker.errors)[:20]
    out["cost"] = checker.cost
    out["lower_bound"] = checker.lower_bound
    return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    out = run_round(cfg)
    for error in out["errors"]:
        log(error)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
