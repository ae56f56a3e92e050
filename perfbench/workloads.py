"""The three workloads: their job mixes and how one job runs and is gated.

A round is the fixed job list of a workload; the seed only shuffles it and
picks phase parameters.  The counts per size are chosen so that, in the
sorted latencies of a round, the median and the tail percentile each fall
in the middle of one size's block rather than on a boundary between two.
Per-size counts are listed in ascending latency order, with the position
(1-based, in a round) of the median and tail sample noted beside them.

Every job's latency is measured alone; the gate runs after it, untimed.
"""

import itertools
import json
import signal
import subprocess
import sys
from time import perf_counter

import gate

#: prime_exact, 100 jobs a round: the median (job 50) is mid d = 7 (jobs
#: 31-70) and the p90 tail (job 90) mid d = 13 (jobs 85-94).  Larger primes
#: are left out: one d = 29 job takes 12 s and would dominate every run.
PRIME_EXACT_MIX = {5: 30, 7: 40, 11: 14, 13: 10, 17: 3, 19: 2, 23: 1}

#: prime_power, 100 jobs a round, (p, e): the median (job 50) is mid d = 8
#: and 9, which take the same time (jobs 25-84), and the p90 tail (job 90)
#: mid d = 16 (jobs 85-98).  The counts of d = 4, 8 and 9 are whole cycles
#: of their phase parameters, which change a job's time by up to 30%.
#: d = 32 is left out: its class search does not finish.
PRIME_POWER_MIX = {(2, 2): 24, (2, 3): 24, (3, 2): 36, (2, 4): 14, (5, 2): 1, (3, 3): 1}

#: Labels of the CLI invocations whose time is the CLI cold start.
LIGHT = ("gen2", "su2")


class JobTimeout(BaseException):
    """Raised by SIGALRM when an in-process job overruns its timeout."""


def _alarm(signum, frame):
    raise JobTimeout


class Job:
    __slots__ = ("label", "args")

    def __init__(self, label, *args):
        self.label = label
        self.args = args


def _gated(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # malformed output fails the job, not the run
        return [f"gate {type(exc).__name__}: {exc}"]


def _shuffled(units, rng):
    rng.shuffle(units)
    return [job for unit in units for job in unit]


class InProcess:
    """Jobs that call mubkit's public builders from this process."""

    def setup(self):
        import mubkit

        self.mk = mubkit
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, job, timeout, tracer):
        signal.setitimer(signal.ITIMER_REAL, timeout)
        t0 = perf_counter()
        try:
            out = self.call(job)
        except JobTimeout:
            return perf_counter() - t0, ["timeout"]
        except Exception as exc:  # a failing job is counted, not fatal
            return perf_counter() - t0, [f"exception {type(exc).__name__}: {exc}"]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return perf_counter() - t0, _gated(self.check, job, out)


class PrimeExact(InProcess):
    """build_complete_set(d) then verify_set, for prime d."""

    warmup = Job("d5", 5)

    def round(self, rng):
        units = [[Job(f"d{d}", d)] for d, n in PRIME_EXACT_MIX.items() for _ in range(n)]
        return _shuffled(units, rng)

    def call(self, job):
        mub_set = self.mk.build_complete_set(job.args[0])
        return mub_set, self.mk.verify_set(mub_set)

    def check(self, job, out):
        mub_set, report = out
        return gate.check_set(mub_set, job.args[0], report, expect_exact=True)


class PrimePower(InProcess):
    """build_composite_set(p, e, a_params), which verifies the set itself.

    Each size's jobs take the next phase parameters from a cycle through all
    p**e of them, in an order the seed picks; the cycle carries over from
    round to round.
    """

    warmup = Job("d4", 2, 2, (0, 0))

    def __init__(self, rng):
        self.cycles = {}
        for p, e in PRIME_POWER_MIX:
            params = list(itertools.product(range(p), repeat=e))
            rng.shuffle(params)
            self.cycles[p, e] = itertools.cycle(params)

    def round(self, rng):
        units = [
            [Job(f"d{p**e}", p, e, next(self.cycles[p, e]))]
            for (p, e), n in PRIME_POWER_MIX.items()
            for _ in range(n)
        ]
        return _shuffled(units, rng)

    def call(self, job):
        return self.mk.build_composite_set(*job.args)

    def check(self, job, mub_set):
        p, e, _ = job.args
        return gate.check_set(mub_set, p**e)


class CliRoundtrip:
    """One `python -m mubkit.cli` subprocess per job.

    A round is 40 invocations, so its tail is the p75: the median (job 20)
    falls among the 26 import-dominated invocations, the p75 (job 30) mid the
    ffz block (jobs 27-34), above which sit sumrule 7, set 19 and sumrule 11.
    A set job and the verify job that reads its file stay adjacent.
    """

    def __init__(self, workdir, env, shim, rng):
        self.workdir, self.env, self.shim = workdir, env, shim
        self.repeats = gate.Repeats()
        self.cli = {"import_s": [], "exit_nonzero": 0}
        # Phase parameters are fixed for the run so that argvs repeat.
        a2 = str(rng.randrange(2))
        a8 = ",".join(str(rng.randrange(2)) for _ in range(3))
        pair = lambda name, argv, exact: [
            Job(f"set{name}", [*argv, "--output", f"{name}.json"], ("set", exact), f"{name}.json"),
            Job(f"verify{name}", ["verify", "--set", f"{name}.json"], ("verify", exact)),
        ]
        self.mix = (
            (6, [Job("gen2", ["gen", "--dim", "2", "--a", a2], ("gen", 2))]),
            (6, [Job("su2", ["su2", "--two-j", "12"], ("pass", ("reports", 13)))]),
            (3, pair("13x", ["set", "--dim", "13", "--exact"], True)),
            (2, pair("19", ["set", "--dim", "19"], False)),
            (3, pair("8", ["composite", "--p", "2", "--e", "3", "--a", a8], False)),
            (3, [Job("sumrule7", ["sumrule", "--dim", "7"], ("pass", ("entries", 7**4)))]),
            (1, [Job("sumrule11", ["sumrule", "--dim", "11"], ("pass", ("entries", 11**4)))]),
            (8, [Job("ffz5", ["ffz", "--dim", "5"], ("pass", ("reports", 5)))]),
        )
        self.warmup = self.mix[0][1][0]

    def setup(self):
        pass

    def round(self, rng):
        return _shuffled([unit for n, unit in self.mix for _ in range(n)], rng)

    def run(self, job, timeout, tracer):
        argv, check = job.args[0], job.args[1]
        outputs = [self.workdir / name for name in job.args[2:]]
        for path in outputs:
            path.unlink(missing_ok=True)
        span_file = self.workdir / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "mubkit.cli", *argv]
        else:
            span_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(self.shim), span_file.name, *argv]
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=self.env, capture_output=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return perf_counter() - t0, ["timeout"]
        latency = perf_counter() - t0
        if tracer is not None:
            self._merge_spans(span_file, tracer, proc.returncode)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return latency, [f"exit code {proc.returncode}", *tail]
        return latency, _gated(self.check, argv, check, proc.stdout, outputs)

    def check(self, argv, check, stdout, outputs):
        files = [path.read_bytes() for path in outputs]
        problems = gate.check_cli_output(check, stdout, files)
        return problems + self.repeats.problems(argv, stdout, files)

    def _merge_spans(self, span_file, tracer, returncode):
        if returncode != 0:
            self.cli["exit_nonzero"] += 1
        if span_file.exists():
            doc = json.loads(span_file.read_text())
            self.cli["import_s"].append(doc["import_s"])
            tracer.merge(doc["spans"], doc["counters"])

