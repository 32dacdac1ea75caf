import json
import os

import pytest

from dubrovnik.cli import (CACHE_VERSION, CacheCorrupt, CeilingExceeded,
                           JobSpec, cache_load, cache_store, diagram_job_key,
                           main, run)
from dubrovnik.diagrams import braid_to_link, parse_braid, parse_regraph
from dubrovnik.invariants import kauffman_state_sum
from dubrovnik.maps import canonical_signature
from dubrovnik.ring import (LaurentPoly, R_ONE, RingElem, constants,
                            parse_ring_text, to_canonical_text)
from dubrovnik.skein import EvalContext, InternalError

C = constants()


@pytest.fixture
def no_debug_env():
    """Clear DUBROVNIK_DEBUG for a test of what the cache stores and serves:
    debug mode does neither.  The patch is kept apart from the test's own
    `monkeypatch`, so `monkeypatch.undo()` leaves it in place; request this
    fixture first, so that it is undone last."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("DUBROVNIK_DEBUG", raising=False)
        yield


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
    val = RingElem(LaurentPoly(terms), doc["value"]["denomPow"])
    assert val == C.alpha


def test_json_text_round_trip_and_determinism():
    job = JobSpec("braid", "n=3; 1 -2 1", fmt="json")
    doc1 = run(job, EvalContext())
    doc2 = run(job, EvalContext())
    doc1.pop("elapsedMs")
    doc2.pop("elapsedMs")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_mirror_negates_the_writhe():
    mirrored = run(JobSpec("braid", "1 1 1", mirror=True, normalized=True,
                           fmt="json"), EvalContext())
    direct = run(JobSpec("braid", "-1 -1 -1", normalized=True, fmt="json"),
                 EvalContext())
    assert mirrored["writhe"] == direct["writhe"] == -3
    assert mirrored["value"] == direct["value"]


def test_so_n_below_two_is_refused_before_the_state_sum(monkeypatch):
    import dubrovnik.cli as cli
    calls = []
    real = cli.kauffman_state_sum

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(cli, "kauffman_state_sum", counting)
    with pytest.raises(ValueError, match="N must be at least 2"):
        run(JobSpec("braid", "n=3; 1 2 1 2", so_n=1))
    assert not calls
    assert main(["eval-braid", "1 1", "--so-n", "0"]) == 1


def test_normalized_requires_braid():
    with pytest.raises(ValueError):
        JobSpec("pd", "X(1,1,2,2)", normalized=True)


def test_eval_graph_oracle_check(capsys):
    # theta has no crossing; the clasped handcuff has two and a wide edge
    for text in ("W(1,2;2,1)", "W(1,2;3,4) X(5,6,4,3) X(2,1,6,5)"):
        assert main(["eval-graph", text, "--oracle-check",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["oracleAgreement"] is True
    assert main(["eval-graph", "W(1,2;3,4) X(5,6,4,3) X(2,1,6,5)",
                 "--oracle-check", "--so-n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "-q^-1 - q^-3"


def test_ceiling():
    with pytest.raises(CeilingExceeded):
        run(JobSpec("braid", "1 1 1 1", max_crossings=3))
    # a ceiling of 0 is valid and admits a crossingless graph
    run(JobSpec("regraph", "W(1,2;2,1)", max_crossings=0))


def test_negative_ceiling_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="ceiling must be at least 0"):
        JobSpec("braid", "1 1", max_crossings=-1)
    assert main(["eval-braid", "1 1", "--max-crossings", "-1"]) == 1
    err = capsys.readouterr().err
    assert "ceiling must be at least 0" in err and "exceed" not in err
    f = tmp_path / "jobs.jsonl"
    f.write_text(json.dumps({"kind": "braid", "text": "1 1",
                             "max_crossings": -1}) + "\n")
    assert main(["batch", str(f)]) == 1
    [doc] = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert "ceiling must be at least 0" in doc["error"]


def test_parse_error_exit_code(capsys):
    assert main(["eval-braid", "1 x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_cache_path_exit_code(tmp_path, capsys):
    # a directory in place of the cache file is reported, not a traceback
    assert main(["eval-braid", "1 1", "--cache", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cache_round_trip(no_debug_env, tmp_path):
    path = tmp_path / "cache.jsonl"
    ctx = EvalContext()
    # a closure whose reduction memoizes a piece that falls away
    text = "n=3; 1 2 1 2 1 2"
    job = JobSpec("braid", text, cache_path=str(path))
    doc1 = run(job, ctx)
    assert path.exists()
    rows = {}
    assert cache_load(str(path), rows) == len(rows) == 1
    # whole-diagram values survive the text round trip exactly; the
    # reduction memo stays in the process
    d = braid_to_link(parse_braid(text))
    assert rows == {diagram_job_key(d): kauffman_state_sum(d).value}
    assert ctx.memo
    doc2 = run(job, EvalContext())
    assert doc1["value"] == doc2["value"]


def test_no_cache_hashes_no_key(monkeypatch):
    import dubrovnik.cli as cli

    def unused(d):
        raise AssertionError("a job with no cache computed a cache key")

    monkeypatch.setattr(cli, "diagram_job_key", unused)
    doc = run(JobSpec("braid", "n=3; 1 2 1 2"))
    d = braid_to_link(parse_braid("n=3; 1 2 1 2"))
    assert doc["value"] == cli._value_json(kauffman_state_sum(d).value)


def test_cache_hits_speed_repeat(no_debug_env, tmp_path, monkeypatch):
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


def test_cache_corrupt(no_debug_env, tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"signature": "not base64!!", "value": "0"}\n')
    rows = {}
    assert cache_load(str(path), rows) == 0
    assert "corrupt" in capsys.readouterr().err
    assert not rows
    # an empty cache file is all misses, not an error
    path.write_text("")
    assert cache_load(str(path), rows) == 0
    # a row whose key or value is not text, whose value does not parse
    # ("" once read as 1), is not canonical ("B*A") or has an exponent past
    # ring.MAX_EXPONENT, or that is nested past the recursion limit, voids
    # the whole file, and the next store replaces it
    good = json.dumps({"diagram": "good", "value": "A"})
    bad_rows = [json.dumps({"diagram": "bad", "value": value})
                for value in (5, None, "", "  ", "-", "/(A-B)^2", "*A", "B*A",
                              "a^99999999999999")]
    bad_rows += [json.dumps({"diagram": key, "value": "A"})
                 for key in (5, None)]
    bad_rows.append("[" * 100_000 + "]" * 100_000)
    for bad in bad_rows:
        path.write_text(f"{CACHE_VERSION}\n{good}\n{bad}\n")
        assert cache_load(str(path), rows) == 0
        assert "corrupt" in capsys.readouterr().err
        assert not rows
        assert main(["eval-braid", "1 1", "--cache", str(path)]) == 0
        capsys.readouterr()
        stored = path.read_text().splitlines()
        assert len(stored) == 2 and '"good"' not in stored[1]
        assert cache_load(str(path), {}) == 1
    # so does a file that is not UTF-8 text
    path.write_bytes(b"\xff\xfe" + CACHE_VERSION.encode() + b"\n")
    assert main(["eval-braid", "1 1", "--cache", str(path)]) == 0
    assert "corrupt" in capsys.readouterr().err
    assert path.read_text().startswith(CACHE_VERSION)
    assert cache_load(str(path), {}) == 1


def test_cache_load_parses_each_line_once(no_debug_env, tmp_path, capsys,
                                          monkeypatch):
    import dubrovnik.cli as cli
    path = tmp_path / "cache.jsonl"
    run(JobSpec("braid", "1 1", cache_path=str(path)), EvalContext())
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_ring_text(text)

    monkeypatch.setattr(cli, "parse_ring_text", counting)
    first, again = {}, {}
    assert cache_load(str(path), first) == 1 and len(parsed) == 1
    # an unchanged file parses no row, and serves the same rows
    assert cache_load(str(path), again) == 1 and len(parsed) == 1
    assert again == first
    # a job that adds a row parses nothing; the next load parses that row
    run(JobSpec("braid", "1 1 1", cache_path=str(path)), EvalContext())
    assert len(parsed) == 1
    rows = {}
    assert cache_load(str(path), rows) == 2 and len(parsed) == 2
    assert first.items() <= rows.items()
    # a malformed row after the parsed text voids the file on every load
    with path.open("a") as f:
        f.write(json.dumps({"diagram": "bad", "value": "B*A"}) + "\n")
    for _ in range(2):
        assert cache_load(str(path), {}) == 0
        assert "corrupt" in capsys.readouterr().err


def test_cache_load_sees_an_edit_in_place(no_debug_env, tmp_path):
    path = tmp_path / "cache.jsonl"
    rows = [json.dumps({"diagram": key, "value": value})
            for key, value in (("k1", "A"), ("k2", "a"))]
    path.write_text(CACHE_VERSION + "\n" + "\n".join(rows) + "\n")
    loaded = {}
    assert cache_load(str(path), loaded) == 2
    assert loaded["k1"] == parse_ring_text("A")
    # the same length, another valid value
    path.write_text(path.read_text().replace('"A"', '"B"'))
    loaded = {}
    assert cache_load(str(path), loaded) == 2
    assert loaded["k1"] == parse_ring_text("B")
    assert loaded["k2"] == parse_ring_text("a")


def test_cache_store_appends_one_line(no_debug_env, tmp_path):
    path = tmp_path / "cache.jsonl"
    for text in ("1 1", "n=3; 1 2 1 2"):
        run(JobSpec("braid", text, cache_path=str(path)), EvalContext())
    before, inode = path.read_bytes(), path.stat().st_ino
    run(JobSpec("braid", "n=3; 1 -2 1", cache_path=str(path)), EvalContext())
    after = path.read_bytes()
    # appended in place: every earlier byte kept, one whole line added
    assert path.stat().st_ino == inode
    assert after.startswith(before) and after.endswith(b"\n")
    assert after[len(before):].count(b"\n") == 1
    rows = {}
    assert cache_load(str(path), rows) == 3
    d = braid_to_link(parse_braid("n=3; 1 -2 1"))
    assert rows[diagram_job_key(d)] == kauffman_state_sum(d).value
    # a cached job stores nothing
    run(JobSpec("braid", "1 1", cache_path=str(path)), EvalContext())
    assert path.read_bytes() == after


def test_cache_store_replaces_a_read_only_file(no_debug_env, tmp_path,
                                               capsys, monkeypatch):
    import errno
    path = tmp_path / "cache.jsonl"
    assert main(["eval-braid", "1 1", "--cache", str(path)]) == 0
    path.chmod(0o444)
    # a user other than root cannot open the file for writing
    real_open = os.open

    def no_write(name, flags, *args, **kw):
        if name == str(path) and flags & (os.O_WRONLY | os.O_RDWR):
            raise PermissionError(errno.EACCES, "Permission denied", name)
        return real_open(name, flags, *args, **kw)

    monkeypatch.setattr(os, "open", no_write)
    assert main(["eval-braid", "1 1 1", "--cache", str(path)]) == 0
    assert "error" not in capsys.readouterr().err
    # the store fell back to replacing the file whole
    rows = {}
    assert cache_load(str(path), rows) == 2
    d = braid_to_link(parse_braid("1 1 1"))
    assert rows[diagram_job_key(d)] == kauffman_state_sum(d).value


def test_cache_torn_last_line(no_debug_env, tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    run(JobSpec("braid", "1 1", cache_path=str(path)), EvalContext())
    whole = path.read_text()
    # a crash mid-append leaves a last line with no newline
    path.write_text(whole + '{"diagram": "torn", "val')
    rows = {}
    assert cache_load(str(path), rows) == 1
    assert "torn" in capsys.readouterr().err
    assert "torn" not in rows
    # a complete row with no newline is torn all the same
    path.write_text(whole + json.dumps({"diagram": "late", "value": "A"}))
    assert cache_load(str(path), {}) == 1
    assert "torn" in capsys.readouterr().err
    # the earlier row is still served, so that job stores nothing
    torn = path.read_text()
    ctx = EvalContext()
    run(JobSpec("braid", "1 1", cache_path=str(path)), ctx)
    assert ctx.stats["state_hits"] == 3 ** 2
    assert "torn" in capsys.readouterr().err
    assert path.read_text() == torn
    # the next store rewrites the file whole instead of appending onto the
    # torn line
    inode = path.stat().st_ino
    assert main(["eval-braid", "1 1 1", "--cache", str(path)]) == 0
    assert "torn" in capsys.readouterr().err
    lines = path.read_text().splitlines()
    assert path.stat().st_ino != inode
    assert lines[0] == CACHE_VERSION and len(lines) == 3
    assert path.read_text().startswith(whole)
    assert cache_load(str(path), {}) == 2
    assert capsys.readouterr().err == ""


def test_cache_rejects_old_format(no_debug_env, tmp_path, capsys):
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
    rows = {}
    assert cache_load(str(path), rows) == 0
    assert "stale or corrupt" in capsys.readouterr().err
    assert not rows
    job = JobSpec("braid", "1 1", cache_path=str(path))
    doc = run(job, EvalContext())
    assert "stale or corrupt" in capsys.readouterr().err
    assert path.read_text().splitlines()[0] == CACHE_VERSION
    assert cache_load(str(path), rows) == len(rows) == 1
    assert capsys.readouterr().err == ""
    ctx2 = EvalContext()
    assert run(job, ctx2)["value"] == doc["value"]
    assert ctx2.stats["state_hits"] == 3 ** 2


def test_cache_store_is_atomic(no_debug_env, tmp_path, monkeypatch):
    import dubrovnik.cli as cli
    path = tmp_path / "cache.jsonl"
    run(JobSpec("braid", "1 1", cache_path=str(path)), EvalContext())
    before = path.read_text()
    rows = {"first": C.alpha, "second": C.delta}
    written = []

    def failing(value):
        if len(written) == 1:
            raise RuntimeError("simulated crash during store")
        written.append(value)
        return to_canonical_text(value)

    monkeypatch.setattr(cli, "to_canonical_text", failing)
    with pytest.raises(RuntimeError):
        cache_store(str(path), rows)
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]
    monkeypatch.undo()
    assert cache_load(str(path), {}) == 1


def test_cache_store_keeps_the_original_error(no_debug_env, tmp_path,
                                              monkeypatch):
    import dubrovnik.cli as cli
    path = tmp_path / "cache.jsonl"
    run(JobSpec("braid", "1 1", cache_path=str(path)), EvalContext())
    before = path.read_text()

    def denied(file, *args, **kw):
        raise PermissionError(f"simulated: cannot open {file}")

    # the temporary file is never created, so there is nothing to clean up
    monkeypatch.setattr(cli, "open", denied, raising=False)
    with pytest.raises(PermissionError):
        cache_store(str(path), {"first": C.alpha})
    monkeypatch.undo()
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]
    assert cache_load(str(path), {}) == 1


def test_debug_mode_recomputes_diagram_rows(no_debug_env, tmp_path,
                                            monkeypatch):
    path = tmp_path / "cache.jsonl"
    job = JobSpec("braid", "n=3; 1 2 1 2", cache_path=str(path))
    run(job, EvalContext())
    rows = path.read_text().splitlines()
    tampered = [json.dumps({"diagram": json.loads(r)["diagram"], "value": "7"})
                if '"diagram"' in r else r for r in rows]
    assert tampered != rows
    path.write_text("\n".join(tampered) + "\n")
    # outside debug mode the stored row is served as it is
    ctx = EvalContext()
    assert run(job, ctx)["value"]["terms"] == [
        {"coeff": 7, "expa": 0, "expA": 0, "expB": 0}]
    assert ctx.stats["state_hits"] == 3 ** 4
    # in debug mode it is recomputed and the mismatch is an internal error
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    ctx = EvalContext()
    with pytest.raises(InternalError, match="stored diagram value"):
        run(job, ctx)
    assert ctx.stats["state_hits"] == 0


def test_debug_mode_never_writes_the_cache(no_debug_env, tmp_path,
                                           monkeypatch):
    path = tmp_path / "cache.jsonl"
    for text in ("1 1 1", "n=3; 1 2 1 2", "n=3; 1 -2 1"):
        run(JobSpec("braid", text, cache_path=str(path)), EvalContext())
    before = path.read_bytes()
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    # a cached diagram is rechecked and a new one computed; neither is stored
    for text in ("n=3; 1 2 1 2", "1 1"):
        run(JobSpec("braid", text, cache_path=str(path)), EvalContext())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


def test_cache_replaces_the_memo_row_format(no_debug_env, tmp_path, capsys):
    # a file of the previous format: signature scheme in the version line,
    # and memo rows keyed by signatures written as nested lists
    path = tmp_path / "cache.jsonl"
    path.write_text(
        json.dumps({"format": "dubrovnik-cache/2",
                    "signature": "least-colour-rooted-min/2"}) + "\n"
        + json.dumps({"memo": [1, []], "value": "1"}) + "\n"
        + json.dumps({"diagram": "0123456789abcdef01234567", "value": "7"})
        + "\n")
    rows = {}
    assert cache_load(str(path), rows) == 0
    assert "stale or corrupt" in capsys.readouterr().err
    assert not rows
    run(JobSpec("braid", "1 1", cache_path=str(path)), EvalContext())
    rows = path.read_text().splitlines()
    assert rows[0] == CACHE_VERSION and len(rows) == 2


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


def test_batch_reports_bad_lines_and_continues(tmp_path, capsys):
    f = tmp_path / "jobs.jsonl"
    f.write_text("{not json\n"
                 + json.dumps({"kind": "braid", "text": "1", "color": 1}) + "\n"
                 + json.dumps({"kind": "knot", "text": "1 1"}) + "\n"
                 + json.dumps({"kind": "braid", "text": "1 1"}) + "\n")
    assert main(["batch", str(f)]) == 1
    docs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [d["input"] for d in docs] == ["{not json", "1", "1 1", "1 1"]
    assert all("error" in d for d in docs[:3])
    assert "color" in docs[1]["error"] and "knot" in docs[2]["error"]
    assert "error" not in docs[3] and docs[3]["value"]["terms"]


def test_batch_unreadable_job_file_exit_code(tmp_path, capsys):
    # a directory or a missing file in place of the job file is reported,
    # not a traceback
    for path in (tmp_path, tmp_path / "missing.jsonl"):
        assert main(["batch", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and not captured.out
        assert "Traceback" not in captured.err


def test_verify_subset(capsys):
    assert main(["verify", "--suite", "ring"]) == 0
    assert "[PASS] ring identities" in capsys.readouterr().out


def test_verify_unknown_suite_is_an_error(capsys):
    from dubrovnik.verify import run_all
    assert next(run_all([]), None) is None
    assert main(["verify", "--suite", "nosuchsuite"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: no suite name contains")


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
