"""In-memory span recorder and the per-layer metrics derived from its spans.

Spans are recorded from the benchmark's side only: `Tracer.install` replaces
public functions of the mubkit modules by timing wrappers (every module
attribute that is the same function object is replaced, so calls through
`from .x import f` copies are caught too) and `Tracer.uninstall` puts the
originals back.  A span is `[name, start, end, parent, job]`, where parent
is the index of the enclosing span (-1 at the root of a job) and job is the
benchmark's job id.  Spans stay in memory until the run ends.
"""

import functools
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

NAME, START, END, PARENT, JOB = range(5)


def _note_exact_pair(tracer, report):
    # details["exact"] is True/False for an exact verdict and None for a
    # numeric one.
    if report.details.get("exact") is not None:
        tracer.counters["mub.pairs.exact"] += 1


def _note_bytes(tracer, text):
    tracer.counters["serialize.encode.bytes"] += len(text.encode())


#: (span name, module, attribute, hook on the result) for every wrapped call.
TARGETS = (
    ("cyclo.canonicalize", "mubkit.cyclo", "canonicalize_coeffs", None),
    ("mub.build", "mubkit.mub", "build_complete_set", None),
    ("mub.verify_set", "mubkit.mub", "verify_set", None),
    ("mub.verify_unbiased", "mubkit.mub", "verify_unbiased", _note_exact_pair),
    ("mub.gram", "mubkit.mub", "overlap_matrix", None),
    ("mub.gauss", "mubkit.mub", "gauss_sum_magnitude", None),
    ("composite.build", "mubkit.composite", "build_composite_set", None),
    ("composite.search", "mubkit.composite", "partition_commuting_classes", None),
    ("composite.eigenbasis", "mubkit.composite", "joint_eigenbasis", None),
    ("composite.build_w", "mubkit.composite", "build_w", None),
    ("serialize.to_doc", "mubkit.serialize", "mubset_to_doc", None),
    ("serialize.dumps", "mubkit.serialize", "dumps", _note_bytes),
    ("serialize.decode", "mubkit.serialize", "mubset_from_doc", None),
    ("weyl.ffz", "mubkit.weyl", "ffz_sweep", None),
    ("weyl.build", "mubkit.weyl", "build_v", None),
    ("weyl.build", "mubkit.weyl", "build_z", None),
    ("weyl.build", "mubkit.weyl", "build_t", None),
    ("su2.check", "mubkit.su2", "check_su2", None),
    ("su2.check", "mubkit.su2", "check_ladder_action", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.job = None
        self._stack = []
        self._patched = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self._stack.pop()
        self.spans[idx][END] = perf_counter()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target that the loaded mubkit modules define."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mubkit"]
        for name, mod_name, attr, hook in TARGETS:
            mod = sys.modules.get(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self):
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def merge(self, spans, counters):
        """Append spans recorded by another process under the open span."""
        parent = self._stack[-1] if self._stack else -1
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else par + base, self.job])
        self.counters.update(counters)

    def dump(self, path, **extra):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": self.counters, **extra}, f)


def span_stats(spans):
    """Per span name: calls, busy time (outermost spans only) and self time.

    busy counts a span only when no ancestor has the same name; self time is
    a span's duration minus the durations of its direct children.  Also
    returns, per name, the busy time of spans nested under composite.build.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls, busy, self_s, under_composite = Counter(), Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] += 1
        self_s[name] += dur - child[i]
        same_above = in_composite = False
        p = s[PARENT]
        while p >= 0:
            same_above |= spans[p][NAME] == name
            in_composite |= spans[p][NAME] == "composite.build"
            p = spans[p][PARENT]
        if not same_above:
            busy[name] += dur
            if in_composite:
                under_composite[name] += dur
    return calls, busy, self_s, under_composite


def layer_metrics(tracer, rounds, cli):
    """Per-layer metrics per pass over the job list (`rounds` traced passes).

    `cli` holds the CLI figures gathered by the client: the import times of
    the traced invocations, the wall times of the light untraced ones, and
    the count of non-zero exits in traced rounds.
    """
    calls, busy, self_s, under_composite = span_stats(tracer.spans)
    c = tracer.counters
    pairs = calls["mub.verify_unbiased"]
    per = 1.0 / rounds
    count = lambda n: ("count", n * per)
    secs = lambda x: ("s", x * per)
    # Each group names the end-to-end metric it should move, and where.
    return {
        # The exact overlap kernel: jobs_per_s and job_tail_s on prime_exact;
        # about 0 on prime_power.
        "cyclo.canonicalize.calls": count(calls["cyclo.canonicalize"]),
        "cyclo.canonicalize.busy_s": secs(busy["cyclo.canonicalize"]),
        "mub.verify_unbiased.self_s": secs(self_s["mub.verify_unbiased"]),
        # Whether verdicts are exact (1.0 on prime_exact, 0.0 on
        # prime_power); it does not move speed.
        "mub.pairs.checked": count(pairs),
        "mub.pairs.exact": count(c["mub.pairs.exact"]),
        "mub.pairs.exact_frac": ("ratio", c["mub.pairs.exact"] / pairs if pairs else 0.0),
        # job_p50_s on prime_power and on the verify jobs of cli_roundtrip.
        "mub.gram.calls": count(calls["mub.gram"]),
        "mub.gram.busy_s": secs(busy["mub.gram"]),
        "mub.verify_set.calls": count(calls["mub.verify_set"]),
        "mub.verify_set.busy_s": secs(busy["mub.verify_set"]),
        "mub.build.busy_s": secs(busy["mub.build"]),
        # jobs_per_s and job_tail_s on prime_power.
        "composite.search.calls": count(calls["composite.search"]),
        "composite.search.busy_s": secs(busy["composite.search"]),
        "composite.eigenbasis.calls": count(calls["composite.eigenbasis"]),
        "composite.eigenbasis.busy_s": secs(busy["composite.eigenbasis"]),
        "composite.build_w.calls": count(calls["composite.build_w"]),
        "composite.build_w.busy_s": secs(busy["composite.build_w"]),
        "composite.verify.busy_s": secs(under_composite["mub.verify_set"]),
        # job_p50_s on cli_roundtrip, whose median is an import-dominated job.
        "cli.start_s": ("s", _median(cli["light_s"])),
        "cli.import_s": ("s", _median(cli["import_s"])),
        "cli.run.busy_s": secs(busy["cli.run"]),
        "cli.exit_nonzero": count(cli["exit_nonzero"]),
        # The set and verify job latencies on cli_roundtrip.
        "serialize.encode.calls": count(calls["serialize.dumps"]),
        "serialize.encode.busy_s": secs(busy["serialize.to_doc"] + busy["serialize.dumps"]),
        "serialize.encode.bytes": ("bytes", c["serialize.encode.bytes"] * per),
        "serialize.decode.calls": count(calls["serialize.decode"]),
        "serialize.decode.busy_s": secs(busy["serialize.decode"]),
        # job_tail_s and jobs_per_s on cli_roundtrip.
        "mub.gauss.calls": count(calls["mub.gauss"]),
        "mub.gauss.busy_s": secs(busy["mub.gauss"]),
        "weyl.ffz.busy_s": secs(busy["weyl.ffz"]),
        "weyl.build.calls": count(calls["weyl.build"]),
        "su2.check.busy_s": secs(busy["su2.check"]),
    }


def _median(values):
    return statistics.median(values) if values else 0.0
