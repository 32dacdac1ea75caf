import json

import pytest

from dubrovnik.cli import (CACHE_VERSION, CacheCorrupt, CeilingExceeded,
                           JobSpec, cache_load, cache_store, main, run)
from dubrovnik.diagrams import braid_to_link, parse_braid, parse_regraph
from dubrovnik.invariants import kauffman_state_sum
from dubrovnik.maps import canonical_signature
from dubrovnik.ring import (LaurentPoly, R_ONE, RingElem, constants,
                            parse_ring_text, to_canonical_text)
from dubrovnik.skein import EvalContext, InternalError

C = constants()


def test_eval_braid_hopf(capsys):
    assert main(["eval-braid", "1 1"]) == 0
    out = capsys.readouterr().out.strip()
    from dubrovnik.ring import R_A_minus_B, R_a, R_a_inv
    aa = R_a - R_a_inv
    expected = aa * R_A_minus_B + RingElem(aa.num, 1) + R_ONE
    assert parse_ring_text(out) == expected


def test_eval_graph_theta_so2(capsys):
    assert main(["eval-graph", "W(1,2;2,1)", "--so-n", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "-q - q^-1"


def test_eval_braid_oracle_check(capsys):
    assert main(["eval-braid", "1 -1", "--oracle-check", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracleAgreement"] is True
    terms = {(t["expa"], t["expA"], t["expB"]): t["coeff"]
             for t in doc["value"]["terms"]}
    val = RingElem(LaurentPoly(terms), doc["value"]["denomPow"], _canonical=True)
    assert val == C.alpha


def test_json_text_round_trip_and_determinism():
    job = JobSpec("braid", "n=3; 1 -2 1", fmt="json")
    doc1 = run(job, EvalContext())
    doc2 = run(job, EvalContext())
    doc1.pop("elapsedMs")
    doc2.pop("elapsedMs")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_normalized_requires_braid():
    with pytest.raises(ValueError):
        JobSpec("pd", "X(1,1,2,2)", normalized=True)


def test_ceiling():
    with pytest.raises(CeilingExceeded):
        run(JobSpec("braid", "1 1 1 1", max_crossings=3))


def test_parse_error_exit_code(capsys):
    assert main(["eval-braid", "1 x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_n2_fast(capsys):
    assert main(["eval-graph", "W(1,2;2,1)", "--n2-fast"]) == 0
    assert capsys.readouterr().out.strip() == "-q - q^-1"
    with pytest.raises(ValueError):
        run(JobSpec("regraph", "W(1,2;3,4) X(4,3,5,6) X(6,5,1,2)", n2_fast=True))


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    ctx = EvalContext()
    job = JobSpec("braid", "n=3; 1 2 1 2", cache_path=str(path))
    doc1 = run(job, ctx)
    assert path.exists()
    ctx2 = EvalContext()
    loaded = cache_load(str(path), ctx2)
    assert loaded == len(ctx.memo) + len(ctx.results)
    # both tables survive the text round trip exactly
    assert ctx2.memo == ctx.memo
    assert ctx2.results == ctx.results
    doc2 = run(job, EvalContext())
    assert doc1["value"] == doc2["value"]


def test_cache_hits_speed_repeat(tmp_path, monkeypatch):
    import dubrovnik.diagrams as D
    import dubrovnik.invariants as I
    path = tmp_path / "cache.jsonl"
    job = JobSpec("braid", "n=3; 1 2 1 2 1 2", cache_path=str(path))
    run(job, EvalContext())
    calls = {"resolve_arrays": 0, "evaluate": 0}

    def counting(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(D.StateResolver, "resolve_arrays",
                        counting("resolve_arrays",
                                 D.StateResolver.resolve_arrays))
    monkeypatch.setattr(I, "evaluate", counting("evaluate", I.evaluate))
    ctx = EvalContext()
    doc = run(job, ctx)
    assert ctx.stats["state_hits"] == 3 ** 6
    assert doc["statesEvaluated"] == 3 ** 6
    assert calls == {"resolve_arrays": 0, "evaluate": 0}
    # the counters do see a cold run
    run(JobSpec("braid", "n=3; 1 2 1 2"), EvalContext())
    assert calls["resolve_arrays"] == 3 ** 4 and calls["evaluate"] > 0


def test_cache_corrupt(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"signature": "not base64!!", "value": "0"}\n')
    ctx = EvalContext()
    assert cache_load(str(path), ctx) == 0
    assert "corrupt" in capsys.readouterr().err
    assert not ctx.memo
    # an empty cache file is all misses, not an error
    path.write_text("")
    assert cache_load(str(path), ctx) == 0


def test_cache_rejects_old_format(tmp_path, capsys):
    import base64
    path = tmp_path / "cache.jsonl"

    def b64(text):
        return base64.b64encode(text.encode()).decode()

    # the per-state format: no version line, base64 keys, state|... rows
    path.write_text(
        json.dumps({"signature": b64(json.dumps(["memo", [1, ["t", []]]])),
                    "value": "1"}) + "\n"
        + json.dumps({"signature": b64("state|0123456789abcdef01234567|AB"),
                      "value": "A*B"}) + "\n")
    ctx = EvalContext()
    assert cache_load(str(path), ctx) == 0
    assert "stale or corrupt" in capsys.readouterr().err
    assert not ctx.memo and not ctx.results
    job = JobSpec("braid", "1 1", cache_path=str(path))
    doc = run(job, EvalContext())
    assert "stale or corrupt" in capsys.readouterr().err
    assert path.read_text().splitlines()[0] == CACHE_VERSION
    ctx2 = EvalContext()
    assert cache_load(str(path), ctx2) == len(ctx2.memo) + len(ctx2.results) > 0
    assert capsys.readouterr().err == ""
    assert run(job, ctx2)["value"] == doc["value"]
    assert ctx2.stats["state_hits"] == 3 ** 2


def test_cache_store_is_atomic(tmp_path, monkeypatch):
    import dubrovnik.cli as cli
    path = tmp_path / "cache.jsonl"
    run(JobSpec("braid", "1 1", cache_path=str(path)), EvalContext())
    before = path.read_text()
    ctx = EvalContext()
    run(JobSpec("braid", "n=3; 1 2 1 2"), ctx)
    written = []

    def failing(value):
        if len(written) == 3:
            raise RuntimeError("simulated crash during store")
        written.append(value)
        return to_canonical_text(value)

    monkeypatch.setattr(cli, "to_canonical_text", failing)
    with pytest.raises(RuntimeError):
        cache_store(str(path), ctx)
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]
    monkeypatch.undo()
    ctx2 = EvalContext()
    assert cache_load(str(path), ctx2) > 0
    assert ctx2.results


def test_cache_store_keeps_the_original_error(tmp_path, monkeypatch):
    import dubrovnik.cli as cli
    path = tmp_path / "cache.jsonl"
    run(JobSpec("braid", "1 1", cache_path=str(path)), EvalContext())
    before = path.read_text()
    ctx = EvalContext()
    run(JobSpec("braid", "n=3; 1 2 1 2"), ctx)

    def denied(file, *args, **kw):
        raise PermissionError(f"simulated: cannot open {file}")

    # the temporary file is never created, so there is nothing to clean up
    monkeypatch.setattr(cli, "open", denied, raising=False)
    with pytest.raises(PermissionError):
        cache_store(str(path), ctx)
    monkeypatch.undo()
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]
    ctx2 = EvalContext()
    assert cache_load(str(path), ctx2) > 0
    assert ctx2.results


def test_debug_mode_recomputes_diagram_rows(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    job = JobSpec("braid", "n=3; 1 2 1 2", cache_path=str(path))
    run(job, EvalContext())
    rows = path.read_text().splitlines()
    tampered = [json.dumps({"diagram": json.loads(r)["diagram"], "value": "7"})
                if '"diagram"' in r else r for r in rows]
    assert tampered != rows
    path.write_text("\n".join(tampered) + "\n")
    # outside debug mode the stored row is served as it is
    assert run(job, EvalContext())["value"]["terms"] == [
        {"coeff": 7, "expa": 0, "expA": 0, "expB": 0}]
    # in debug mode it is recomputed and the mismatch is an internal error
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    ctx = EvalContext()
    with pytest.raises(InternalError):
        run(job, ctx)
    assert ctx.stats["state_hits"] == 0
    # verify=True does the same without the environment variable
    monkeypatch.delenv("DUBROVNIK_DEBUG")
    ctx = EvalContext()
    cache_load(str(path), ctx, verify=True)
    assert not ctx.results and not ctx.memo
    with pytest.raises(InternalError):
        kauffman_state_sum(braid_to_link(parse_braid("n=3; 1 2 1 2")), ctx)


def test_batch(tmp_path, capsys):
    f = tmp_path / "jobs.jsonl"
    f.write_text(json.dumps({"kind": "braid", "text": "1 1"}) + "\n"
                 + json.dumps({"kind": "regraph", "text": "W(1,2;2,1)",
                               "so_n": 2}) + "\n")
    assert main(["batch", str(f)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    doc = json.loads(lines[1])
    assert doc["specialized"] == "-q - q^-1"


def test_verify_subset(capsys):
    assert main(["verify", "--suite", "ring"]) == 0
    assert "[PASS] ring identities" in capsys.readouterr().out


def test_mutation_breaks_ring_suite(monkeypatch):
    import dubrovnik.verify as V
    from dubrovnik.ring import Constants
    broken = Constants(C.alpha, -C.beta, C.gamma, C.delta)
    monkeypatch.setattr(V, "constants", lambda: broken)
    name, ok, detail = V.check_ring_identities()
    assert not ok


def test_mutation_breaks_rii(monkeypatch):
    # a wrong digon coefficient must break Reidemeister II invariance
    import dubrovnik.skein as S
    from dubrovnik.ring import Constants
    broken = Constants(C.alpha, C.beta, C.gamma + R_ONE, C.delta)
    monkeypatch.setattr(S, "constants", lambda: broken)
    from dubrovnik.invariants import eval_braid
    from dubrovnik.diagrams import parse_braid
    got = eval_braid(parse_braid("1 -1"), EvalContext()).value
    assert got != C.alpha
