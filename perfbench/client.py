"""The single client process of one workload run.

Usage: client.py WORKLOAD SEED TRACE WORKDIR, started by run.py.  The client
sets up (imports, one warm-up job), writes one JSON line to stdout (the
warm-up's problems and the reference kernel's time) and waits for a command
on stdin: `EXIT`, or `RUN SECONDS DEADLINE_S`.  On RUN it runs
rounds of the workload's job list as a closed loop, one job at a time, for
about SECONDS, and writes one JSON line with every job's record.  Anything
else the process prints goes to stderr.

In traced mode (TRACE = 1) it alternates an untraced and a traced round, so
the tracing overhead is measured on the same job list, and adds the
per-layer metrics of the traced rounds to its result.
"""

import json
import os
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracing import Tracer, layer_metrics

#: Per-job cap; a job that overruns it fails with reason "timeout".
JOB_TIMEOUT = 60.0

_REF_C = (np.arange(4096).reshape(64, 64) % 7) * (1 + 1j)
_REF_K = np.arange(4096, dtype=np.int64).reshape(64, 64) % 11
_REF_IDX = np.arange(64)[:, None] * np.ones(8, dtype=np.int64)


def reference_s():
    """Best of three timings of a fixed kernel of interpreter and numpy work.

    Shared hosts run the same code at speeds that drift by up to 1.9x over
    seconds.  The kernel is timed between jobs, so each job's latency can be
    rescaled to a fixed machine speed (see run.py).  Its mix (a Python loop,
    small objects, complex matmul, integer einsum and np.add.at) follows the
    jobs' own, so that it slows down with the host about as much as they do.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(13000):
            acc += i * i
        objs = [(i, (i, i + 1), str(i)) for i in range(600)]
        _REF_C @ _REF_C
        (_REF_K[:, None, :] * _REF_K[None, :16, :]).sum()
        np.einsum("xk,xm->km", _REF_K[:32], _REF_K[:32])
        counts = np.zeros((64, 27), dtype=np.int64)
        np.add.at(counts, (_REF_IDX, _REF_IDX % 27), 1)
        best = min(best, perf_counter() - t0)
    return best


def make_workload(name, workdir, rng):
    if name == "prime_exact":
        return workloads.PrimeExact()
    if name == "prime_power":
        return workloads.PrimePower(rng)
    env = dict(os.environ)
    return workloads.CliRoundtrip(workdir, env, Path(__file__).with_name("cli_shim.py"), rng)


def run_rounds(wl, rng, seconds, deadline, span_path):
    """Rounds until another would overrun `seconds`; at least one pass.

    With a span_path the run is traced and its spans are written there.
    """
    tracer = None if span_path is None else Tracer()
    passes = (None,) if tracer is None else (None, tracer)
    records = []
    start = perf_counter()
    units = 0
    ref_before = reference_s()
    while True:
        for t in passes:
            jobs = wl.round(rng)
            if t is not None:
                t.install()
            for job in jobs:
                timeout = min(JOB_TIMEOUT, max(0.05, deadline - perf_counter()))
                if t is not None:
                    t.job = len(records)
                    idx = t.open("job")
                try:
                    latency, problems = wl.run(job, timeout, t)
                finally:
                    if t is not None:
                        t.close(idx)
                ref_after = reference_s()
                records.append([job.label, latency, problems, t is not None, (ref_before + ref_after) / 2])
                ref_before = ref_after
            if t is not None:
                t.uninstall()
        units += 1
        elapsed = perf_counter() - start
        if elapsed * (units + 1) / units > seconds or perf_counter() >= deadline:
            break
    rusage = resource.getrusage
    peak_kb = max(rusage(resource.RUSAGE_SELF).ru_maxrss, rusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "records": records,
        "round_size": len(jobs),
        "rounds": units * len(passes),
        "peak_rss_mb": peak_kb / 1024,
    }
    if tracer is not None:
        result["metrics"] = traced_metrics(wl, tracer, records, units)
        tracer.dump(span_path)
    return result


def traced_metrics(wl, tracer, records, traced_rounds):
    busy = {False: 0.0, True: 0.0}
    for _, latency, _, traced, ref in records:
        busy[traced] += latency / ref
    cli = getattr(wl, "cli", {"import_s": [], "exit_nonzero": 0})
    light = [r[1] for r in records if not r[3] and r[0] in workloads.LIGHT]
    metrics = layer_metrics(tracer, traced_rounds, dict(cli, light_s=light))
    metrics["trace.overhead_frac"] = ("ratio", busy[True] / busy[False] - 1)
    return metrics


def main():
    name, seed, trace, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    # One CPU for the client and the CLI processes it starts, so that the
    # reference kernel sees the speed of the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = random.Random(seed)
    wl = make_workload(name, workdir, rng)
    wl.setup()
    _, problems = wl.run(wl.warmup, JOB_TIMEOUT, None)
    ready = {"warmup_problems": problems, "reference_s": reference_s()}
    proto.write(json.dumps(ready) + "\n")
    proto.flush()
    command = sys.stdin.readline().split()
    if command[:1] != ["RUN"]:
        return 0
    seconds, deadline = float(command[1]), perf_counter() + float(command[2])
    span_path = workdir.parent / f"spans-{name}-seed{seed}.json" if trace else None
    result = run_rounds(wl, rng, seconds, deadline, span_path)
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
