"""The mubkit benchmark: run one workload and print its metrics.

Usage, from the root of a checkout that holds src/mubkit:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/selftest.py        # the correctness gate's self-test

Workloads (job mixes in workloads.py): prime_exact, prime_power and
cli_roundtrip.  Each runs as a closed loop from one client process with
BLAS pinned to one thread.  The seed only shuffles the job list and picks
phase parameters.  Every job is checked by the gate in gate.py, untimed.

The client is started SETUP_PROBES times; each start is timed from launch to
the end of its warm-up job and setup_s is the median.  The last start runs
the job list in rounds for about S seconds.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones:
setup_s, jobs_per_s, job_p50_s, job_tail_s and peak_rss_mb.  With --trace 1
they are the per-layer metrics of tracing.py.  The line before it holds the
run's metadata, the tail percentile used and its sample counts, and any
failures.
"""

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("prime_exact", "prime_power", "cli_roundtrip")
SETUP_PROBES = 5
#: A client that is not ready by then has failed to set up.
SETUP_TIMEOUT_S = 60
#: The whole run, set-up included, stays within this many seconds.
RUN_LIMIT_S = 165
#: Candidate tail percentiles; the highest with at least ten samples beyond
#: it in one round is used.
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Job latencies are reported in seconds at the machine speed at which the
#: reference kernel of client.py takes this long.  The scale is arbitrary
#: but fixed, so figures compare across commits and hosts.
REFERENCE_S = 1.5e-3


class ClientError(RuntimeError):
    pass


def client_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in BLAS_PIN:
        env[var] = "1"
    return env


def launch(args, env, workdir):
    """Start a client and wait for its first line; return it with the set-up time."""
    cmd = [sys.executable, str(HERE / "client.py"), args.workload, str(args.seed),
           str(args.trace), str(workdir)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup_s = perf_counter() - t0
    if not line:
        stop(proc)
        raise ClientError("the client exited or hung during set-up")
    return proc, setup_s, json.loads(line)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_client(args, env, workdir, started):
    """All set-up probes, then the measured run in the last one."""
    probes = 1 if args.trace else SETUP_PROBES
    setups, warmups = [], []
    for i in range(probes):
        proc, setup_s, ready = launch(args, env, workdir)
        setups.append((setup_s, ready["reference_s"]))
        warmups.append(["warmup", setup_s, ready["warmup_problems"], False, ready["reference_s"]])
        try:
            if i < probes - 1:
                proc.communicate("EXIT\n", timeout=SETUP_TIMEOUT_S)
                out = ""
            else:
                left = RUN_LIMIT_S - (perf_counter() - started)
                out, _ = proc.communicate(f"RUN {args.seconds} {left}\n", timeout=left + 10)
        except subprocess.TimeoutExpired:
            raise ClientError("the client overran the run limit") from None
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise ClientError(f"the client exited with code {proc.returncode}")
    return setups, warmups, json.loads(out.strip().splitlines()[-1])


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def latency_stats(latencies, level):
    """jobs/s, p50, the tail at `level` and the samples beyond the tail."""
    latencies = sorted(latencies)
    tail, beyond = percentile(latencies, level)
    return len(latencies) / sum(latencies), percentile(latencies, 50)[0], tail, beyond


def end_to_end(setups, result):
    """End-to-end metrics, with times rescaled to the reference speed.

    Each job's latency is multiplied by REFERENCE_S over the reference
    kernel's time around that job, and each set-up time by REFERENCE_S over
    the kernel's time at the end of that set-up, which removes the host's
    speed drift; the raw figures go in the detail line.
    """
    records = result["records"]
    level = next(p for p in TAIL_LADDER if result["round_size"] * (100 - p) / 100 >= 10)
    rate, p50, tail, beyond = latency_stats([r[1] * REFERENCE_S / r[4] for r in records], level)
    raw_rate, raw_p50, raw_tail, _ = latency_stats([r[1] for r in records], level)
    metrics = {
        "setup_s": ("s", statistics.median(t * REFERENCE_S / ref for t, ref in setups)),
        "jobs_per_s": ("1/s", rate),
        "job_p50_s": ("s", p50),
        "job_tail_s": ("s", tail),
        "peak_rss_mb": ("MB", result["peak_rss_mb"]),
    }
    detail = {
        "tail_percentile": level,
        "tail_samples_beyond": beyond,
        "samples": len(records),
        "raw": {
            "setup_s": statistics.median(t for t, _ in setups),
            "jobs_per_s": raw_rate,
            "job_p50_s": raw_p50,
            "job_tail_s": raw_tail,
        },
        "reference_s_median": statistics.median(r[4] for r in records),
    }
    return metrics, detail


def metadata(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {var: "1" for var in BLAS_PIN},
        "client_cpu": min(os.sched_getaffinity(0)),
        "seed": args.seed,
        "commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not (ROOT / "src" / "mubkit" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/mubkit to benchmark", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, warmups, result = run_client(args, client_env(), workdir, started)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"] + warmups
    failures = [r for r in records if r[2]]
    if args.trace:
        metrics, detail = result["metrics"], {}
    else:
        metrics, detail = end_to_end(setups, result)
    detail.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        rounds=result["rounds"],
        round_size=result["round_size"],
        setup_probes_s=[t for t, _ in setups],
        failed_by_reason=Counter(r[2][0].split(":")[0] for r in failures),
        failures=[{"job": r[0], "problems": r[2]} for r in failures[:20]],
        meta=metadata(args),
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
