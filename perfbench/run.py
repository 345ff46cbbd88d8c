"""The repository benchmark: three closed-loop workloads, one command.

    python3 perfbench/run.py --workload cold_firstfit --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports ``repro`` from ``src/``.
Each run is a few *rounds*; every round is a fresh worker process
(``worker.py``) and, for the remote workloads, a fresh ``repro serve``
process with a fresh store.  The worker sets up, says ``READY``, sends
its share of the run's requests one at a time, then checks every
output.  This parent process times set-up, pools the rounds' samples
and prints one table line per metric, then, as the last stdout line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same rounds untraced and traced, alternating, and reports the
per-layer metrics of the traced rounds plus the tracing overhead.  See
``perfbench/README.md`` for the workloads, the metrics and the layer
table.  The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Requests per second of ``--seconds`` each workload sends.  Constants,
#: not measurements: the request count (and so the inputs and the
#: deterministic ``cost_ratio``) depends only on the arguments.
NOMINAL_RATE = {"cold_firstfit": 10, "warm_remote": 35, "serve_mix": 120}
WORKLOADS = tuple(NOMINAL_RATE)
#: Fresh set-ups per run; ``setup_s`` is their median.
ROUNDS = 3
#: A worker that has not finished after this long has hung.
ROUND_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "rss_mb": "MB",
    "ok_ratio": "ratio",
    "cost_ratio": "ratio",
}

#: Per-layer metric -> unit.  ``*_ms`` layer times are totals over the
#: traced rounds' timed phases (client and server processes summed).
PER_LAYER = {
    "occupancy.first_fit_ms": "ms",
    "occupancy.first_fit_calls": "count",
    "algorithm.minbusy_ms": "ms",
    "algorithm.capacity_ms": "ms",
    "algorithm.ring_ms": "ms",
    "algorithm.rect2d_ms": "ms",
    "algorithm.other_ms": "ms",
    "verify.check_result_ms": "ms",
    "executors.self_ms": "ms",
    "registry.normalize_ms": "ms",
    "fingerprint.self_ms": "ms",
    "rebuild.self_ms": "ms",
    "io.to_doc_ms": "ms",
    "io.from_doc_ms": "ms",
    "binary.encode_ms": "ms",
    "binary.decode_ms": "ms",
    "wire.bytes_out_per_req": "B",
    "wire.bytes_in_per_req": "B",
    "api.self_ms": "ms",
    "client.rtt_ms": "ms",
    "gc.pause_ms": "ms",
    "gc.gen2_collections": "count",
    "tiers.probe_ms": "ms",
    "tiers.install_ms": "ms",
    "server.wire_hit_ratio": "ratio",
    "server.lru_hit_ratio": "ratio",
    "repair.attempts": "count",
    "repair.hits": "count",
    "repair.aborts": "count",
    "repair.hit_ratio": "ratio",
    "repair.self_ms": "ms",
    "store.puts": "count",
    "store.put_ms": "ms",
    "store.get_ms": "ms",
    "store.bytes": "B",
    "client.cpu_ms_per_item": "ms",
    "server.cpu_ms_per_item": "ms",
    "server.self_ms": "ms",
    "unattributed_ms": "ms",
    "obs.trace_overhead_pct": "%",
    "host.ref_loop_ms": "ms",
}

#: Layer-time metrics -> the layer names of ``layers.LAYERS`` they sum.
_LAYER_TIMES = {
    "occupancy.first_fit_ms": "occupancy.first_fit",
    "algorithm.minbusy_ms": "algorithm.minbusy",
    "algorithm.capacity_ms": "algorithm.capacity",
    "algorithm.ring_ms": "algorithm.ring",
    "algorithm.rect2d_ms": "algorithm.rect2d",
    "algorithm.other_ms": "algorithm.other",
    "verify.check_result_ms": "verify",
    "executors.self_ms": "executors",
    "registry.normalize_ms": "registry.normalize",
    "fingerprint.self_ms": "fingerprint",
    "rebuild.self_ms": "rebuild",
    "io.to_doc_ms": "io.to_doc",
    "io.from_doc_ms": "io.from_doc",
    "binary.encode_ms": "binary.encode",
    "binary.decode_ms": "binary.decode",
    "api.self_ms": "api",
    "client.rtt_ms": "client.rtt",
    "tiers.probe_ms": "tiers.probe",
    "tiers.install_ms": "tiers.install",
    "repair.self_ms": "repair",
    "store.put_ms": "store.put",
    "store.get_ms": "store.get",
    "server.self_ms": "server",
}

#: Layer groups whose share of the traced client wall time the table
#: prints: the stressed layers of each workload.  Client and server
#: layers both count; ``transport`` is the request glue, the server's
#: own time and the socket.  ``algorithm`` should
#: dominate ``cold_firstfit``; ``codec`` should dominate ``warm_remote``,
#: where ``algorithm`` is about 0.
LAYER_GROUPS = {
    "algorithm": (
        "occupancy.first_fit", "algorithm.minbusy", "algorithm.capacity",
        "algorithm.ring", "algorithm.rect2d", "algorithm.other", "verify", "executors",
    ),
    "codec": (
        "registry.normalize", "fingerprint", "rebuild", "io.to_doc", "io.from_doc",
        "binary.encode", "binary.decode",
    ),
    "tiers": ("tiers.probe", "tiers.install", "repair", "store.put", "store.get"),
    "transport": ("api", "client.rtt", "server"),
}


def say(line: str) -> None:
    print(line, flush=True)


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU.

    A closed loop with one caller has no parallelism to lose: client and
    server take turns.  On a 2-vCPU VM, keeping both vCPUs busy invites
    steal time and cross-CPU wake-up delays; measured here, they moved a
    round trip's p90 by up to 5x, while one pinned CPU kept it within 2x.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_ms(cpu: int) -> float:
    """Time the hypervisor ran something else on ``cpu`` (cumulative)."""
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == f"cpu{cpu}":
                return int(fields[8]) * 1e3 / os.sysconf("SC_CLK_TCK")
    return 0.0


def ref_loop_ms() -> float:
    """A fixed pure-Python loop, median of five timings: host speed."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def tail(values: List[float]) -> Tuple[float, int, int]:
    """``(value, percentile, samples beyond)``: the highest of p99/p95/p90
    with at least ten samples above it (p90 when none has)."""
    # Importable once main() has put the checkout's src/ on the path.
    from repro.loadgen.report import percentile

    ordered = sorted(values)
    for q in (99, 95, 90):
        value = percentile(ordered, q / 100)
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= 10:
            return value, q, beyond
    value = percentile(ordered, 0.90)
    return value, 90, sum(1 for v in ordered if v > value)


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------


def child_env(root: str) -> Dict[str, str]:
    """The environment of every process the benchmark starts: no
    inherited ``REPRO_*`` knobs, a fixed hash seed, single-threaded
    numeric libraries, ``repro`` from this checkout's ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    return env


def run_round(cfg: Dict[str, Any], env: Dict[str, str]) -> Dict[str, Any]:
    """Start one worker; time its set-up; collect its result.

    The worker leads its own process group, so a worker that fails is
    killed together with the server it started.
    """
    os.makedirs(cfg["run_dir"])
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != b"READY":
            raise RuntimeError(f"worker failed during set-up ({ready!r})")
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(rounds: List[Dict[str, Any]]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    lat = [v for r in rounds for v in r["lat_ms"]]
    tail_ms, tail_q, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "items_per_s": sum(r["requests"] for r in rounds) / sum(r["wall_s"] for r in rounds),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "rss_mb": statistics.median(
            (r["client_rss_kb"] + r["server_rss_kb"]) / 1024.0 for r in rounds
        ),
        "ok_ratio": sum(r["validated"] for r in rounds) / sum(r["attempted"] for r in rounds),
        "cost_ratio": _ratio(
            sum(r["cost"] for r in rounds), sum(r["lower_bound"] for r in rounds)
        ),
    }
    by_kind: Dict[str, List[float]] = {}
    for r in rounds:
        for kind, v in zip(r["kinds"], r["lat_ms"]):
            by_kind.setdefault(kind, []).append(v)
    notes = {
        "samples": len(lat),
        "tail": f"p{tail_q}, {beyond} of {len(lat)} samples beyond",
        "setups": [round(r["setup_s"], 3) for r in rounds],
        "p50_by_kind": {k: round(statistics.median(v), 3) for k, v in sorted(by_kind.items())},
    }
    return metrics, notes


def per_layer(
    traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]], host_ms: float
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    client_self = client_root = client_wall = server_self = gc_pause = 0.0
    gc_gen2 = 0
    counters: Dict[str, float] = {}
    for r in traced:
        sides = [r["layers_client"]] + ([r["layers_server"]] if "layers_server" in r else [])
        for side in sides:
            for layer, v in side["self_s"].items():
                self_s[layer] = self_s.get(layer, 0.0) + v
            for layer, v in side["calls"].items():
                calls[layer] = calls.get(layer, 0) + v
            gc_pause += side["gc_pause_s"]
            gc_gen2 += side["gc_gen2"]
        client_self += sum(r["layers_client"]["self_s"].values())
        if "layers_server" in r:
            server_self += sum(r["layers_server"]["self_s"].values())
        client_root += r["layers_client"]["root_s"]
        client_wall += r["wall_s"]
        for key, v in r["counters"].items():
            counters[key] = counters.get(key, 0) + v
    requests = sum(r["requests"] for r in traced)
    plain_requests = sum(r["requests"] for r in untraced)
    metrics = {name: self_s.get(layer, 0.0) * 1e3 for name, layer in _LAYER_TIMES.items()}
    untraced_rate = plain_requests / sum(r["wall_s"] for r in untraced)
    traced_rate = requests / client_wall
    metrics.update(
        {
            "occupancy.first_fit_calls": calls.get("occupancy.first_fit", 0),
            "wire.bytes_out_per_req": counters["bytes_in"] / requests,
            "wire.bytes_in_per_req": counters["bytes_out"] / requests,
            "gc.pause_ms": gc_pause * 1e3,
            "gc.gen2_collections": gc_gen2,
            # Only solve requests can replay; control ops only miss.
            "server.wire_hit_ratio": counters["wire_hits"] / requests,
            "server.lru_hit_ratio": _ratio(
                counters["lru_hits"], counters["lru_hits"] + counters["lru_misses"]
            ),
            "repair.attempts": counters["repair_attempts"],
            "repair.hits": counters["repair_hits"],
            "repair.aborts": counters["repair_aborts"],
            "repair.hit_ratio": _ratio(counters["repair_hits"], counters["repair_attempts"]),
            "store.puts": counters["store_puts"],
            "store.bytes": counters["store_bytes"],
            # Process CPU is taken from the untraced rounds: it describes
            # the program, not a layer, and the shims would inflate it.
            "client.cpu_ms_per_item": sum(r["client_cpu_s"] for r in untraced) * 1e3 / plain_requests,
            "server.cpu_ms_per_item": sum(r["server_cpu_s"] for r in untraced) * 1e3 / plain_requests,
            "unattributed_ms": (client_wall - client_root) * 1e3,
            "obs.trace_overhead_pct": (untraced_rate / traced_rate - 1.0) * 100.0,
            "host.ref_loop_ms": host_ms,
        }
    )
    notes = {
        "client_wall_ms": client_wall * 1e3,
        "client_self_ms": client_self * 1e3,
        "client_unattributed_ms": (client_wall - client_root) * 1e3,
    }
    shares = {
        group: sum(self_s.get(layer, 0.0) for layer in layers) / client_wall
        for group, layers in LAYER_GROUPS.items()
    }
    # The server works while the client waits in client.rtt: count that
    # time once, in the server's layers, so the shares partition the wall.
    shares["transport"] -= server_self / client_wall
    notes["shares"] = shares
    return metrics, notes


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS + ("all",),
        help="one workload, or all three in turn (the last line is then "
        "the last workload's result)",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply every instance size (tests use small scales)",
    )
    return p.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, workload, root) for workload in workloads)


def run_workload(args: argparse.Namespace, workload: str, root: str) -> int:
    count = max(ROUNDS, math.ceil(args.seconds * NOMINAL_RATE[workload]))
    split = [count // ROUNDS + (r < count % ROUNDS) for r in range(ROUNDS)]
    modes = [False] if not args.trace else [False, True]
    base_dir = os.path.join(root, ".perfbench_run", f"{os.getpid()}-{time.time_ns()}")
    env = child_env(root)
    rounds: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    cpu = pin_to_one_cpu()
    steal_before = steal_ms(cpu)
    host_before = ref_loop_ms()
    try:
        for rnd, n in enumerate(split):
            for traced in modes:
                cfg = {
                    "workload": workload,
                    "seed": args.seed,
                    "round": rnd,
                    "count": n,
                    "scale": args.scale,
                    "trace": traced,
                    "run_dir": os.path.join(base_dir, f"r{rnd}{'t' if traced else ''}"),
                }
                rounds[traced].append(run_round(cfg, env))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
        parent = os.path.dirname(base_dir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    host_after = ref_loop_ms()
    host_ms = (host_before + host_after) / 2
    stolen = steal_ms(cpu) - steal_before

    plain = rounds[False]
    every = plain + rounds[True]
    attempted = sum(r["attempted"] for r in every)
    failed = attempted - sum(r["validated"] for r in every)
    errors = [e for r in every for e in r["errors"]]
    correct = failed == 0 and not errors
    e2e, notes = end_to_end(plain)
    say(f"perfbench {workload} seed={args.seed} requests={count} rounds={ROUNDS}")
    say(
        f"  host: cpu {cpu}, ref_loop_ms before={host_before:.3f} "
        f"after={host_after:.3f}, steal {stolen:.0f} ms"
    )
    for key, value in notes.items():
        say(f"  {key}: {value}")
    for name, unit in END_TO_END.items():
        say(f"  {name:<28} {e2e[name]:>14.4f} {unit}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        layer_metrics, layer_notes = per_layer(rounds[True], plain, host_ms)
        say(
            "  traced client partition: "
            f"wall {layer_notes['client_wall_ms']:.3f} ms = "
            f"self {layer_notes['client_self_ms']:.3f} ms + "
            f"unattributed {layer_notes['client_unattributed_ms']:.3f} ms"
        )
        say(
            "  layer groups, share of traced client wall: "
            + ", ".join(f"{g} {v:.3f}" for g, v in layer_notes["shares"].items())
        )
        for name, unit in PER_LAYER.items():
            say(f"  {name:<28} {layer_metrics[name]:>14.4f} {unit}")
        metrics = {
            name: {"value": layer_metrics[name], "unit": unit} for name, unit in PER_LAYER.items()
        }
    for error in errors[:10]:
        say(f"  MISMATCH {error}")
    say(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
