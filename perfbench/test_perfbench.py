"""Tests of the benchmark itself: inputs, oracle, serializer, checks, tracer."""

import random

import pytest

from perfbench import inputs, oracle
from perfbench import run as bench
from perfbench.tracer import Tracer


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_same_seed_same_job_texts(workload):
    first = inputs.make_jobs(workload, 5)
    assert first == inputs.make_jobs(workload, 5)
    assert first != inputs.make_jobs(workload, 6)
    assert all(isinstance(j.text, str) and j.text for j in first)


def test_cache_stream_repeats_earlier_diagrams():
    jobs = inputs.cache_jobs(3)
    repeats = [j for i, j in enumerate(jobs) if j in jobs[:i]]
    assert len(repeats) >= inputs.CACHE_JOBS // inputs.REPEAT_EVERY


def test_bracket_sweep_equals_literal_state_sum():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(2, 4)
        letters = [rng.randint(1, n - 1) * rng.choice((1, -1))
                   for _ in range(rng.randint(0, 7))]
        assert oracle.bracket_sweep(n, letters) == oracle.bracket_2c(n, letters)


def test_bracket_known_values():
    assert oracle.bracket_sweep(1, []) == {0: 1}
    assert oracle.bracket_sweep(2, []) == oracle.D_LOOP
    assert oracle.bracket_sweep(2, [1, 1]) == {4: -1, -4: -1}          # Hopf link
    assert oracle.bracket_sweep(2, [1, 1, 1]) == {5: -1, -3: -1, -7: 1}  # trefoil


def test_engine_values_specialize_to_the_bracket():
    from dubrovnik import EvalContext, braid_to_link, kauffman_state_sum, parse_braid
    for text in ("n=2; 1 1 1", "n=3; 1 -2 1 -2", "n=3; 2 2 -1"):
        value = kauffman_state_sum(braid_to_link(parse_braid(text)),
                                   EvalContext()).value
        terms = [(m[0], m[1], m[2], c) for m, c in value.num.terms.items()]
        n, letters = oracle.parse_braid_text(text)
        assert oracle.specialize_value(terms, value.dpow) == \
            oracle.bracket_sweep(n, letters)


def test_graph_texts_round_trip():
    from dubrovnik import PlanarMap, canonical_signature, parse_regraph
    for arrays in inputs.graph_arrays(2):
        m = PlanarMap(*arrays)
        text = inputs.map_to_text(m)
        back = parse_regraph(text)
        assert canonical_signature(back) == canonical_signature(m)
        assert inputs.map_to_text(back) == text


def test_crossing_records_round_trip():
    from dubrovnik import braid_to_link, canonical_signature, parse_braid, parse_pd
    d = braid_to_link(parse_braid("n=3; 1 -2 1 2"))
    text = inputs.map_to_text(d)
    back = parse_pd(text)
    assert canonical_signature(back) == canonical_signature(d)
    assert len(back.over) == len(d.over)
    assert inputs.map_to_text(back) == text


def test_serializer_rejects_free_loops():
    from dubrovnik import PlanarMap
    with pytest.raises(ValueError):
        inputs.map_to_text(PlanarMap([], [], [], frozenset(), 1))


def _two_job_runner():
    jobs = [inputs.Job("braid", "n=2; 1 1"), inputs.Job("sweep", "n=3; 1 -2 1")]
    runner = bench.Runner("links", jobs)
    passes = [runner.one_pass()]
    golden = {bench.job_key(j): bench.digest(bench.value_of(out))
              for j, (_, out, _) in zip(jobs, passes[0])}
    return runner, passes, golden


def test_golden_digests_pass_and_corruption_fails():
    runner, passes, golden = _two_job_runner()
    seed = inputs.DEFAULT_SEED
    assert bench.check_outputs(runner, passes, seed, golden) == []
    key = bench.job_key(runner.jobs[0])
    corrupt = dict(golden, **{key: "0" * 64})
    failures = bench.check_outputs(runner, passes, seed, corrupt)
    assert len(failures) == 1 and "golden digest mismatch" in failures[0]
    missing = {k: v for k, v in golden.items() if k != key}
    assert len(bench.check_outputs(runner, passes, seed, missing)) == 1


def test_other_seeds_use_the_independent_checks():
    runner, passes, _ = _two_job_runner()
    assert bench.check_outputs(runner, passes, inputs.DEFAULT_SEED + 1, {}) == []


def test_committed_golden_covers_the_default_seed():
    golden = bench.load_golden()
    for workload in bench.WORKLOADS:
        for job in inputs.make_jobs(workload, inputs.DEFAULT_SEED):
            assert bench.job_key(job) in golden


def test_tail_percentile_leaves_ten_jobs_beyond():
    value, q = bench.tail([float(v) for v in range(1, 101)])
    assert q == 90
    assert sum(1 for v in range(1, 101) if v > value) == 10


def test_end_to_end_scales_each_job_by_its_probe_reading():
    probe = bench.HostProbe()
    ref = bench.PROBE_REFERENCE_S
    probe.readings = [ref, 2 * ref, 2 * ref, 2 * ref, ref, ref]
    passes = [[(0.3, None, None), (0.2, None, None)],
              [(0.4, None, None), (0.5, None, None)],
              [(0.2, None, None), (0.6, None, None)]]
    metrics, info = bench.end_to_end(passes, (0.5, 0.7), 2048, probe)
    # scaled job 0: 0.3, 0.2, 0.2 -> 0.2; job 1: 0.1, 0.25, 0.6 -> 0.25
    assert metrics["wall_s"] == pytest.approx(0.45)
    assert info["unscaled"]["wall_s"] == pytest.approx(0.3 + 0.5)
    assert metrics["setup_s"] == 0.5
    assert metrics["peak_rss_mb"] == 2.0


def test_tracer_counts_and_restores():
    import dubrovnik.invariants as invariants
    import dubrovnik.ring as ring
    original_mul = ring.RingElem.__mul__
    original_sum = invariants.kauffman_state_sum
    runner = bench.Runner("links", [inputs.Job("braid", "n=3; 1 -2 1")])
    tracer = Tracer()
    tracer.install()
    try:
        assert invariants.kauffman_state_sum is not original_sum
        runner.one_pass(tracer)
    finally:
        tracer.uninstall()
    assert ring.RingElem.__mul__ is original_mul
    assert invariants.kauffman_state_sum is original_sum
    assert tracer.calls("invariants.state_sum") == 1
    assert tracer.calls("diagrams.resolve_arrays") == 27
    assert tracer.calls("ring.mul") > 0
    assert tracer.calls("job") == 1
    assert tracer.self_s("job") >= 0


def test_refuses_debug_environment(monkeypatch):
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    with pytest.raises(bench.BenchError):
        bench.load_package()


def test_spec_matches_the_committed_file():
    import json
    import os
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in bench.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in bench.PER_LAYER]
    assert spec["run_seconds"] == bench.RUN_SECONDS
