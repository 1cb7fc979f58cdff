"""The ghzent benchmark: one closed-loop client, seeded inputs, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
seconds with tracing off.  With ``--trace 1`` each round of requests is
sent untraced and then replayed traced, and the run reports the per-layer
metrics and the tracing overhead.  Output: one ``name value unit`` line per metric, a
``{"run": ...}`` line of machine and run facts, and as the last line the
result object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
request is one that raised, exited unexpectedly, answered differently from
the benchmark's reference, or (oracle-n7) whose two routes disagreed.
"""

import os

# One BLAS thread: the client and at most one program process run at once,
# which with one thread each fits the two cores the figures were taken on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
WATCHDOG_S = 170  # the run must end within 180 s


def _parse(argv):
    parser = argparse.ArgumentParser(description="ghzent benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_seconds(args) -> float:
    """Median, over fresh processes, of process start to first-request-ready."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_RUNS):
        spawn = tracing.clock()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - spawn)
    return statistics.median(samples)


def _run_rounds(client, workload, seed, seconds, tracer=None):
    """Send whole rounds until ``seconds`` have passed.

    With a tracer, each round is sent untraced and then replayed traced, so
    both halves see the same inputs and the same drift of the machine.
    Returns the untraced and traced outcomes and the number of rounds.
    """
    untraced, traced = [], []
    api = client.api(tracer) if tracer is not None else None
    deadline = tracing.clock() + seconds
    r = 0
    while tracing.clock() < deadline:
        sent = [(item, reference.expect(item.lp, item.lm, client.tol))
                for item in workload.round(seed, r)]
        untraced.extend(client.send(item, expected) for item, expected in sent)
        if tracer is not None:
            with tracing.installed(tracer):
                for item, expected in sent:
                    tracer.request = len(traced)
                    traced.append(client.send(item, expected, tracer, api))
        r += 1
    return untraced, traced, r


def _latencies(outcomes, key=None):
    values = [o.latency if key is None else o.calls.get(key) for o in outcomes]
    return [v for v in values if v is not None and v == v]


def _blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def _facts(args, workload, rounds, samples):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "samples": samples,
        "tail_percentile": workload.tail,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        # The client waits while a program process runs, so one thread is busy.
        "busy_threads": 1,
        "processes": 2 if workload.mode == "subprocess" else 1,
    }


def _end_to_end(workload, outcomes, setup_s):
    lat = _latencies(outcomes)
    failed = sum(o.problem is not None for o in outcomes)
    if workload.mode == "subprocess":
        rss_kb = max(o.peak_rss_kb for o in outcomes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    done = [o for o in outcomes if o.latency == o.latency]
    return {
        "request_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "request_ms.tail": (float(np.percentile(lat, workload.tail)) * 1e3, "ms"),
        "partitions_per_s": (sum(o.partitions for o in done) / sum(lat), "1/s"),
        "ok_frac": (1.0 - failed / len(outcomes), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".calls"):
        return "calls/req"
    if name.endswith(".errors"):
        return "count"
    return {"analytic.ppt_share": "frac", "oracle.max_residual": "1"}.get(name, "count/req")


def _per_layer(tracer, untraced, traced):
    layers = tracing.summarise(tracer, len(traced))
    plain_ms = statistics.median(_latencies(untraced)) * 1e3
    layers["trace.untraced_request_ms"] = plain_ms
    layers["trace.overhead_ms"] = layers["trace.request_ms"] - plain_ms
    for command in ("classify", "threshold"):
        lat = _latencies(untraced, command)
        layers[f"request.{command}_ms"] = statistics.median(lat) * 1e3 if lat else 0.0
    return {name: (value, _unit(name)) for name, value in layers.items()}


def _run_all(args) -> int:
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, timeout=WATCHDOG_S + 10).returncode)
    return worst


def _watchdog(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {WATCHDOG_S} s")


def _terminate(signum, frame):
    # Unwind, so that a CLI process being waited on is killed and reaped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (workloads.ROOT / "src" / "ghzent" / "cli.py").is_file():
        print(f"error: no program at {workloads.ROOT / 'src' / 'ghzent'}; "
              "run from the root of a ghzent checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        # Everything a fresh process does before its first request.
        workloads.Client(workload)
        next(workload.round(args.seed, 0))
        print(repr(tracing.clock()))
        return 0

    signal.signal(signal.SIGALRM, _watchdog)
    signal.signal(signal.SIGTERM, _terminate)
    signal.alarm(WATCHDOG_S)
    # Byte-compile first so no timed process pays for writing bytecode.
    compileall.compile_dir(workloads.ROOT / "src", quiet=2)
    compileall.compile_dir(Path(__file__).resolve().parent, quiet=2)
    setup_s = None if args.trace else _setup_seconds(args)
    client = workloads.Client(workload)

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, rounds = _run_rounds(client, workload, args.seed, args.seconds, tracer)
    if not _latencies(untraced):
        print("error: no request completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, checked = _per_layer(tracer, untraced, traced), traced
    else:
        metrics, checked = _end_to_end(workload, untraced, setup_s), untraced
    signal.alarm(0)

    problems = [o.problem for o in checked if o.problem]
    for problem in list(dict.fromkeys(problems))[:3]:
        print(f"failed request: {problem}", file=sys.stderr)
    samples = len(_latencies(checked))
    if samples * (100 - workload.tail) / 100 < 10:
        print(f"note: only {samples} samples, fewer than 10 beyond p{workload.tail}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    print(json.dumps({"run": _facts(args, workload, rounds, samples)}))
    result = {
        "correct": not any(o.incorrect for o in checked),
        "attempted": len(checked),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
