#!/usr/bin/env python3
"""Seeded benchmark of the dubrovnik package, run from the repository root.

    python3 perfbench/run.py --workload links --seed 1 --seconds 25 --trace 0

Each workload is a closed loop: one client in this one process runs one job
at a time, each with a fresh EvalContext, through a public entry point
(`cli.run(JobSpec)`, or `invariants.bracket` for the sweep).  The job set is
made from the seed, and the run repeats it in passes until --seconds are
used.  Each job time is scaled to the host's speed by a probe loop timed
just before it, and a job's time is the median over the passes (see
end_to_end).  Every output is
checked: against the committed golden digests for the default seed, and
otherwise against an independent route (plain Kauffman bracket, N=2 closed
form, 4-valent calculus) outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 alternates three untraced
and three traced passes and prints the per-layer metrics.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --write-spec     rewrite BENCHMARK.json
    python3 perfbench/run.py --write-golden   recompute perfbench/golden.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(ROOT, "perfbench", "golden.json")

RUN_SECONDS = 30
SETUP_REPEATS = 11
TAIL_BEYOND = 10            # jobs that must lie beyond the tail percentile
ORACLE_4VALENT_MAX_VERTICES = 12
TRACE_ROUNDS = 3             # untraced + traced pass pairs in a traced run
PROBE_EVERY_S = 1.0         # host probe schedule, in seconds of the run
PROBE_REPEATS = 5
MEM_PROBE_ITEMS = 30_000
PROBE_REFERENCE_S = 4.5e-3   # HostProbe.block() on a quiet 2-core shared
                             # VM, CPython 3.11.7 (see end_to_end)

WORKLOADS = {
    "links": "state-sum path: 3^c resolutions, a signature per state, memo lookups",
    "links-cache": "one --cache file that grows over the stream; every fourth job repeats a diagram",
    "graphs": "crossingless graphs: fallback move search, signatures, large polynomials",
    "braids-sweep": "invariants.bracket: tangle stacking and merging, no state sum or cache",
}

END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

PER_LAYER = [
    ("job.self_s", "s"),
    ("diagrams.parse.self_s", "s"),
    ("diagrams.resolve_arrays.calls", "count"),
    ("diagrams.resolve_arrays.self_s", "s"),
    ("diagrams.stack.calls", "count"),
    ("diagrams.tangle_signature.calls", "count"),
    ("diagrams.tangle_signature.self_s", "s"),
    ("invariants.sweep_terms", "count"),
    ("invariants.states", "count"),
    ("invariants.state_hits", "count"),
    ("invariants.state_sum.self_s", "s"),
    ("invariants.bracket.self_s", "s"),
    ("maps.signature.calls", "count"),
    ("maps.signature.self_s", "s"),
    ("skein.components", "count"),
    ("skein.memo_hit_ratio", "ratio"),
    ("skein.evaluate.self_s", "s"),
    ("skein.rules.apply_wide_digon.calls", "count"),
    ("skein.rules.apply_lollipop.calls", "count"),
    ("skein.rules.square_move.calls", "count"),
    ("skein.rules.h_rotate.calls", "count"),
    ("skein.fallback.calls", "count"),
    ("skein.fallback.self_s", "s"),
    ("ring.mul.calls", "count"),
    ("ring.mul.self_s", "s"),
    ("ring.add.calls", "count"),
    ("ring.add.self_s", "s"),
    ("ring.normalize.self_s", "s"),
    ("ring.max_monomials", "count"),
    ("ring.max_dpow", "count"),
    ("cli.cache_load.self_s", "s"),
    ("cli.cache_load.rows", "count"),
    ("cli.cache_store.self_s", "s"),
    ("cli.cache_store.bytes", "B"),
    ("trace.overhead_frac", "frac"),
]

# What the traced run must show: "+" nonzero, "0" zero, "jobs" one per job.
_EVERYWHERE = {"diagrams.parse.self_s": "+", "maps.signature.calls": "+",
               "skein.components": "+", "skein.evaluate.self_s": "+",
               "ring.mul.calls": "+", "ring.add.calls": "+"}
_NO_SWEEP = {"diagrams.stack.calls": "0", "diagrams.tangle_signature.calls": "0",
             "invariants.sweep_terms": "0", "invariants.bracket.self_s": "0"}
_NO_CACHE = {"cli.cache_load.rows": "0", "cli.cache_load.self_s": "0",
             "cli.cache_store.bytes": "0", "cli.cache_store.self_s": "0"}
_STATE_SUM = {"diagrams.resolve_arrays.calls": "+", "invariants.states": "+",
              "invariants.state_sum.self_s": "+"}
EXPECTED = {
    "links": {**_EVERYWHERE, **_NO_SWEEP, **_NO_CACHE, **_STATE_SUM,
              "invariants.state_hits": "0"},
    "links-cache": {**_EVERYWHERE, **_NO_SWEEP, **_STATE_SUM,
                    "invariants.state_hits": "+", "cli.cache_load.rows": "+",
                    "cli.cache_load.self_s": "+", "cli.cache_store.bytes": "+",
                    "cli.cache_store.self_s": "+"},
    "graphs": {**_EVERYWHERE, **_NO_SWEEP, **_NO_CACHE, **_STATE_SUM,
               "diagrams.resolve_arrays.calls": "jobs",
               "invariants.state_hits": "0", "skein.fallback.calls": "+",
               "skein.fallback.self_s": "+"},
    "braids-sweep": {**_EVERYWHERE, **_NO_CACHE,
                     "diagrams.stack.calls": "+",
                     "diagrams.tangle_signature.calls": "+",
                     "invariants.sweep_terms": "+",
                     "invariants.bracket.self_s": "+",
                     "diagrams.resolve_arrays.calls": "0",
                     "invariants.states": "0", "invariants.state_hits": "0",
                     "invariants.state_sum.self_s": "0"},
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dubrovnik
from dubrovnik.cli import JobSpec, run
run(JobSpec("braid", "n=2; 1 1"))
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


# -- environment -------------------------------------------------------------------

def load_package():
    """Import dubrovnik from this checkout's src/, and nowhere else."""
    if os.environ.get("DUBROVNIK_DEBUG"):
        raise BenchError("DUBROVNIK_DEBUG is set; it changes what the package "
                         "computes, so the benchmark refuses to run")
    if not os.path.isfile(os.path.join(SRC, "dubrovnik", "__init__.py")):
        raise BenchError(f"no package source at {SRC}/dubrovnik")
    sys.path.insert(0, SRC)
    import dubrovnik
    if os.path.dirname(os.path.abspath(dubrovnik.__file__)) != \
            os.path.join(SRC, "dubrovnik"):
        raise BenchError(f"imported dubrovnik from {dubrovnik.__file__}")
    return dubrovnik


def git_commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(probe: "HostProbe") -> tuple[float, float]:
    """Median over fresh interpreters of `import dubrovnik` plus one trivial
    job: host-scaled (each time by the probe just before it), and unscaled."""
    cmd = [sys.executable, "-c", SETUP_CODE, SRC]
    times, scaled = [], []
    for i in range(SETUP_REPEATS + 1):     # the first run writes bytecode caches
        reading = probe.block()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                             check=True).stdout
        if i:
            times.append(float(out.strip().splitlines()[-1]))
            scaled.append(times[-1] * PROBE_REFERENCE_S / reading)
    return statistics.median(scaled), statistics.median(times)


class HostProbe:
    """A fixed loop timed between jobs, to measure the host's speed.

    The loop does dict, tuple and int work on a small table, then walks
    about 2 MB of strings in shuffled order.  It is the benchmark's own code,
    so its time measures the host at that moment and nothing of the program.
    A block of PROBE_REPEATS loops runs at most once per PROBE_EVERY_S of the
    run's clock, so that a faster program does not get more probe samples;
    each job is paired with the latest block's fastest loop.
    """

    def __init__(self):
        rng = random.Random(0)
        self._strings = [str(i) * 3 for i in range(MEM_PROBE_ITEMS)]
        rng.shuffle(self._strings)
        self.best = float("inf")
        self.readings: list[float] = []     # one per job run, in run order
        self._current = 0.0
        self._next = 0.0

    def block(self) -> float:
        """Fastest of PROBE_REPEATS loops, in seconds."""
        fastest = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            d: dict = {}
            for i in range(20000):
                k = (i % 97, i % 13)
                d[k] = d.get(k, 0) + i
            total = 0
            for x in self._strings:
                total += len(x)
            fastest = min(fastest, time.perf_counter() - t0)
        self.best = min(self.best, fastest)
        return fastest

    def before_job(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self._current = self.block()
            self._next = time.perf_counter() + PROBE_EVERY_S
        self.readings.append(self._current)


# -- jobs ---------------------------------------------------------------------------

class Runner:
    """Runs the job set of one workload through the package's entry points."""

    def __init__(self, workload: str, jobs):
        # Entry points are looked up on their modules at call time, so the
        # tracer's wrappers see every call.
        from dubrovnik import cli, diagrams, invariants, skein
        self.cli, self.diagrams = cli, diagrams
        self.invariants, self.skein = invariants, skein
        self.jobs = jobs
        self.cache_path = None
        if workload == "links-cache":
            os.makedirs(WORK, exist_ok=True)
            self.cache_path = os.path.join(WORK, f"cache-{os.getpid()}.jsonl")

    def close(self) -> None:
        if self.cache_path and os.path.exists(self.cache_path):
            os.remove(self.cache_path)

    def one_pass(self, tracer=None, probe=None):
        """Run every job once; returns per-job (seconds, output, stats).

        `probe`, if given, takes a reading before each job, outside its
        timing.
        """
        if self.cache_path and os.path.exists(self.cache_path):
            os.remove(self.cache_path)
        results = []
        for index, job in enumerate(self.jobs):
            if probe is not None:
                probe.before_job()
            if tracer is None:
                results.append(self._run_job(job))
            else:
                with tracer.job_span(index):
                    results.append(self._run_job(job))
        return results

    def _run_job(self, job):
        ctx = self.skein.EvalContext()
        clock = time.perf_counter
        try:
            if job.kind == "sweep":
                t0 = clock()
                out = self.invariants.bracket(
                    self.diagrams.parse_braid(job.text), ctx)
                dt = clock() - t0
                states = 0
            else:
                spec = self.cli.JobSpec(kind=job.kind, text=job.text,
                                        cache_path=self.cache_path)
                t0 = clock()
                doc = self.cli.run(spec, ctx)
                dt = clock() - t0
                out = doc["value"]
                states = doc["statesEvaluated"]
        except Exception:                   # a failed job is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return None, None, None
        stats = dict(ctx.stats, states=states)
        return dt, out, stats


def value_of(out):
    """RingElem of a job output (bracket value or cli JSON value)."""
    from dubrovnik.ring import LaurentPoly, normalize
    if isinstance(out, dict):
        terms = {(t["expa"], t["expA"], t["expB"]): t["coeff"]
                 for t in out["terms"]}
        return normalize(LaurentPoly(terms), out["denomPow"])
    return out


def job_key(job) -> str:
    return job.kind + ":" + hashlib.sha256(job.text.encode()).hexdigest()[:32]


def digest(value) -> str:
    from dubrovnik.ring import to_canonical_text
    return hashlib.sha256(to_canonical_text(value).encode()).hexdigest()


def independent_check(job, value) -> str | None:
    """None when the value agrees with a route outside the trivalent engine."""
    from perfbench import oracle
    terms = [(m[0], m[1], m[2], c) for m, c in value.num.terms.items()]
    if job.kind in ("braid", "sweep"):
        n, letters = oracle.parse_braid_text(job.text)
        expected = oracle.bracket_sweep(n, letters)
        try:
            got = oracle.specialize_value(terms, value.dpow)
        except ValueError as e:
            return str(e)
        if job.kind == "sweep":
            got = oracle.pmul(got, oracle.kink_factor(sum(
                1 if x > 0 else -1 for x in letters)))
        return None if got == expected else "Kauffman bracket mismatch"
    from dubrovnik import (collapse, evaluate4, n2_closed_form, parse_regraph,
                           specialize_soN)
    g = parse_regraph(job.text)
    if specialize_soN(value, 2) != n2_closed_form(g):
        return "N=2 closed form mismatch"
    if g.vertex_count() <= ORACLE_4VALENT_MAX_VERTICES:
        if evaluate4(collapse(g)) != value:
            return "4-valent oracle mismatch"
    return None


def load_golden() -> dict:
    try:
        with open(GOLDEN) as f:
            return json.load(f)["digests"]
    except FileNotFoundError:
        return {}


def check_outputs(runner, passes, seed: int, golden: dict) -> list[str]:
    """One entry per failed job execution, each naming the job and the reason."""
    from perfbench.inputs import DEFAULT_SEED
    failures = []
    for index, job in enumerate(runner.jobs):
        outs = [p[index] for p in passes]
        bad = [o for o in outs if o[0] is None]
        failures += [f"job {index} raised: {job.text[:60]}"] * len(bad)
        good = [o for o in outs if o[0] is not None]
        if not good:
            continue
        digests = [digest(value_of(o[1])) for o in good]
        key = job_key(job)
        reason = None
        if len(set(digests)) > 1:
            reason = "value differs between passes"
        elif key in golden:
            if golden[key] != digests[0]:
                reason = "golden digest mismatch"
        elif seed == DEFAULT_SEED:
            reason = "no golden digest for a default-seed job"
        else:
            reason = independent_check(job, value_of(good[0][1]))
        if reason:
            failures += [f"job {index} ({reason}): {job.text[:60]}"] * len(good)
    return failures


# -- metrics --------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    for q in range(99, 0, -1):
        if sum(1 for v in ordered if v > cuts[q - 1]) >= TAIL_BEYOND:
            return cuts[q - 1], q
    return ordered[0], 0


def per_job(passes, stat) -> list[float]:
    """`stat` of each job's times over the passes; jobs that always failed
    drop out."""
    out = []
    for index in range(len(passes[0])):
        ts = [p[index][0] for p in passes if p[index][0] is not None]
        if ts:
            out.append(stat(ts))
    return out


def end_to_end(passes, setup: tuple[float, float], rss_kb: int,
               probe: HostProbe) -> tuple[dict, dict]:
    """Host-scaled times: each job time is multiplied by PROBE_REFERENCE_S
    over the HostProbe reading taken before it; a job's time is the median
    of those over the passes, and wall_s is their sum.

    The shared host's speed swings by up to 50%, for seconds to minutes at a
    time, and every time measured on it swings with it: a fixed CPU loop's
    median over 25 s windows spread 0.34 (IQR over median) between windows.
    Scaling each job by the host's speed next to it removes most of that.
    Over six seeds of `graphs` in a busy hour, wall_s spread 0.23 unscaled,
    0.17 as each job's fastest time over the passes scaled by the run's
    fastest probe, and 0.06 scaled job by job.  A change to the program moves
    the scaled times as much as the unscaled ones, since the probe does not
    run the program.  The unscaled medians are in the info line.
    """
    n = len(passes[0])
    scaled = [[(r[0] * PROBE_REFERENCE_S / probe.readings[k * n + i]
                if r[0] is not None else None,) for i, r in enumerate(p)]
              for k, p in enumerate(passes)]
    times = per_job(scaled, statistics.median)
    unscaled = per_job(passes, statistics.median)
    tail_s, q = tail(times)
    metrics = {
        "wall_s": sum(times),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_tail_ms": 1000 * tail_s,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": setup[0],
    }
    info = {"passes": len(passes),
            "pass_walls_s": [sum(r[0] for r in p if r[0] is not None)
                             for p in passes],
            "job_tail_percentile": q, "jobs_per_pass": len(times),
            "probe_best_ms": 1000 * probe.best,
            "probe_median_ms": 1000 * statistics.median(probe.readings),
            "unscaled": {"wall_s": sum(unscaled),
                         "job_p50_ms": 1000 * statistics.median(unscaled),
                         "job_tail_ms": 1000 * tail(unscaled)[0],
                         "setup_s": setup[1]}}
    return metrics, info


def per_layer(tracer, traced, overhead: float) -> dict:
    """Per-layer values of the traced pass `traced` (per-job results)."""
    stats = [r[2] for r in traced if r[2] is not None]
    hits = sum(s["memo_hits"] for s in stats)
    misses = sum(s["components"] for s in stats)
    values = {
        "job.self_s": tracer.self_s("job"),
        "invariants.sweep_terms": tracer.calls("diagrams.stack") / 2,
        "invariants.states": sum(s["states"] for s in stats),
        "invariants.state_hits": sum(s["state_hits"] for s in stats),
        "skein.components": misses,
        "skein.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.overhead_frac": overhead,
        **tracer.counters,
    }
    for name, unit in PER_LAYER:
        if name not in values:
            layer, _, field = name.rpartition(".")
            values[name] = (tracer.calls(layer) if field == "calls"
                            else tracer.self_s(layer))
    return {name: values[name] for name, _ in PER_LAYER}


def check_expectations(workload: str, values: dict, jobs: int) -> list[str]:
    problems = []
    for name, want in EXPECTED[workload].items():
        v = values[name]
        if want == "+" and not v > 0:
            problems.append(f"{name} is {v}, expected nonzero on {workload}")
        elif want == "0" and v != 0:
            problems.append(f"{name} is {v}, expected zero on {workload}")
        elif want == "jobs" and v != jobs:
            problems.append(f"{name} is {v}, expected {jobs} (one per job)")
    return problems


# -- running ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_package()
    from perfbench import inputs
    from perfbench.tracer import Tracer
    probe = HostProbe()
    setup = None if trace else measure_setup(probe)
    jobs = inputs.make_jobs(workload, seed)
    runner = Runner(workload, jobs)
    problems: list[str] = []
    info = {"workload": workload, "seed": seed,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": git_commit()}

    passes = []
    golden = load_golden()
    if trace:
        # Untraced and traced passes alternate, and each side keeps every
        # job's fastest time, so that the host's swings and the first pass's
        # warm-up do not read as tracing overhead.  The per-layer values are
        # those of the first traced pass.
        traced_passes, tracers = [], []
        for _ in range(TRACE_ROUNDS):
            passes.append(runner.one_pass())
            tracers.append(Tracer())
            tracers[-1].install()
            try:
                traced_passes.append(runner.one_pass(tracers[-1]))
            finally:
                tracers[-1].uninstall()
        tracer, traced = tracers[0], traced_passes[0]
        overhead = (sum(per_job(traced_passes, min))
                    / sum(per_job(passes, min)) - 1)
        failures = check_outputs(runner, passes + traced_passes, seed, golden)
        metrics = per_layer(tracer, traced, overhead)
        problems = check_expectations(workload, metrics, len(jobs))
        os.makedirs(WORK, exist_ok=True)
        span_file = os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")
        tracer.write_spans(span_file)
        info.update(spans=len(tracer.spans), dropped_spans=tracer.dropped_spans,
                    span_file=os.path.relpath(span_file, ROOT),
                    expectation_failures=problems)
        units = dict(PER_LAYER)
        attempted = 2 * TRACE_ROUNDS * len(jobs)
    else:
        walls = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(runner.one_pass(probe=probe))
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds - 0.5 * statistics.median(walls):
                break
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures = check_outputs(runner, passes, seed, golden)
        metrics, extra = end_to_end(passes, setup, rss_kb, probe)
        info.update(extra)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        attempted = len(passes) * len(jobs)
    runner.close()

    failed = len(failures)
    info["failed_frac"] = failed / attempted
    for line in failures + problems:
        print("FAIL " + line, file=sys.stderr)
    print(json.dumps({"info": info}))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {"correct": not failures and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def write_golden() -> None:
    """Digests of every default-seed job, each cross-checked independently."""
    load_package()
    from perfbench import inputs
    digests = {}
    for workload in WORKLOADS:
        runner = Runner(workload, inputs.make_jobs(workload, inputs.DEFAULT_SEED))
        for job, (dt, out, _) in zip(runner.jobs, runner.one_pass()):
            if dt is None:
                raise BenchError(f"{workload} job raised: {job.text}")
            value = value_of(out)
            problem = independent_check(job, value)
            if problem:
                raise BenchError(f"{workload}: {problem}: {job.text}")
            digests[job_key(job)] = digest(value)
        print(f"{workload}: {len(runner.jobs)} jobs cross-checked", file=sys.stderr)
        runner.close()
    with open(GOLDEN, "w") as f:
        json.dump({"seed": inputs.DEFAULT_SEED, "digests": digests}, f,
                  indent=1, sort_keys=True)
        f.write("\n")


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "lower" if n != "skein.memo_hit_ratio" else "higher"}
                      for n, u in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        if args.write_spec:
            write_spec()
            return 0
        if args.write_golden:
            write_golden()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
