"""Command-line interface.

Subcommands:

    eval-braid "1 1"            Kauffman polynomial of a braid closure
    eval-pd    "X(...) ..."     same for a PD-coded link diagram
    eval-graph "W(...) X(...)"  invariant of a knotted-graph diagram
    verify                      run the self-verification suites
    batch FILE                  one JSON job per line

Exit codes: 0 success, 1 computation error, 2 verification failure.

DUBROVNIK_DEBUG=1 turns on debug mode: every map the program derives is
validated like an input map, a state sum signs every state and checks that
a link's value depends on z = A - B only, the value of a crossingless
diagram (a state sum with no crossing, or a graph valued alone by
`skein.evaluate`), being its own mirror image, is checked to be fixed by
`RingElem.swap_AB_invert_a`, every signature served from the context's
table of literal arrays (`skein.EvalContext.signature`) is recomputed,
every memoized transition row of the braid sweep is recomputed, and a
diagram value found in the cache is recomputed and compared instead of
served.  A mismatch raises `skein.InternalError`.  Debug mode reads the
cache to check it and never writes it.  The variable is read once per job,
and once per call of an engine entry point (`maps.reads_debug_once`), not
once per map built.

The optional cache is a JSON-lines file.  Its first line names the file
format; a file whose first line is missing or different, or that is not
UTF-8 text, is reported and ignored, and the next store replaces it.
Every further row is

    {"diagram": <diagram key>, "value": <canonical polynomial text>}

the whole value of one literal diagram, keyed by `diagram_job_key`.  `run`
alone reads and writes these rows: it looks the diagram up before the
state sum and serves a stored value without enumerating states, so a
repeated run on the same input skips the state sum.  The reduction memo
is not persisted, so canonical signatures never leave the process.

A load reads the whole file, and parses only what it has not parsed
before: the process keeps, for the last cache path it loaded, the text
the load accepted and the rows parsed from it.  When the file still
begins with that text, only the lines after it are parsed; after any other
change (an edit in place, a shorter file) every row is parsed again.  So
every row is checked once per process, a malformed row voids the whole
file on every load, and no value is served from bytes no longer on disk.
A last line with no newline is torn (a crash mid-append leaves one): it is
reported and ignored, and the rows before it are still served.

A store appends the job's new rows, each rendered before the file is
touched and written as whole lines in one append, when the file holds
exactly the text the last load accepted.  Otherwise (a torn last line, a
corrupt, replaced or read-only file, no earlier load of that path) it writes every row to a
temporary file and renames it over the old one, so a crash mid-store
leaves the previous file intact.  Processes that append to one file at
the same time each add whole lines; a row appended while another process
replaces the file may be lost, and is computed again by a later job.  A
crash can cost at most the row being written, never a wrong value.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

from .diagrams import (ParseError, braid_to_link, mirror, parse_braid,
                       parse_pd, parse_regraph)
from .fourvalent import kauffman_via_4valent
from .invariants import InvariantResult, kauffman_state_sum, normalized
from .maps import (InvalidMap, NonPlanar, PlanarMap, debug_mode,
                   reads_debug_once)
from .ring import (LaurentPoly, RingElem, parse_ring_text, qlaurent_text,
                   specialize_soN, to_canonical_text)
from .skein import EvalContext, InternalError


class CeilingExceeded(ValueError):
    """More crossings than the configured ceiling."""


class CacheCorrupt(ValueError):
    """Malformed cache line."""


@dataclass
class JobSpec:
    kind: str                     # braid | pd | regraph
    text: str
    so_n: int | None = None
    mirror: bool = False
    normalized: bool = False
    oracle_check: bool = False
    max_crossings: int = 14
    fmt: str = "text"
    cache_path: str | None = None
    trace: bool = False

    def __post_init__(self):
        if self.kind not in ("braid", "pd", "regraph"):
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.normalized and self.kind != "braid":
            raise ValueError("--normalized requires a braid input")
        if self.so_n is not None and self.so_n < 2:
            raise ValueError("N must be at least 2")
        if self.max_crossings < 0:
            raise ValueError("the crossing ceiling must be at least 0")
        if self.fmt not in ("text", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")


# -- cache -----------------------------------------------------------------------

CACHE_VERSION = json.dumps({"format": "dubrovnik-cache/3"})


def diagram_job_key(d: PlanarMap) -> str:
    """Short stable identifier of the literal diagram (not up to isomorphism)."""
    payload = repr((tuple(d.twin), tuple(d.nxt), tuple(d.wide),
                    sorted(d.over), d.free_loops)).encode()
    return hashlib.sha256(payload).hexdigest()[:24]


# (path, text, rows): the last path `cache_load` read, the whole lines it
# accepted from the file and the rows parsed from them
_LOADED: tuple[str, str, dict] = ("", "", {})


def _row_line(key: str, value: RingElem) -> str:
    return json.dumps({"diagram": key, "value": to_canonical_text(value)}) + "\n"


def cache_store(path: str, rows: dict, kept: int = 0) -> None:
    """Write the whole-diagram rows to `path`.

    The first `kept` rows are already in the file.  When the file holds
    exactly the text `cache_load` last accepted from it, the rows after
    them are appended; otherwise (always when `kept` is 0) every row
    replaces the file atomically.
    """
    if kept:
        new = itertools.islice(rows.items(), kept, None)
        if _append(path, "".join(_row_line(key, value) for key, value in new)):
            return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(CACHE_VERSION + "\n")
            for key, value in rows.items():
                f.write(_row_line(key, value))
        os.replace(tmp, path)
    except BaseException:
        # the temporary file may never have been created
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _append(path: str, lines: str) -> bool:
    """Append `lines` if the file holds exactly the text last loaded from it."""
    last, known, _ = _LOADED
    if last != path or not known:
        return False
    try:
        # reads start at the beginning; every write goes to the end
        f = open(os.open(path, os.O_RDWR | os.O_APPEND), "rb")
    except OSError:
        # missing or not writable: the caller replaces the file whole
        return False
    with f:
        if f.read() != known.encode():
            return False
        data = lines.encode()
        while data:
            data = data[os.write(f.fileno(), data):]
    return True


def cache_load(path: str, rows: dict) -> int:
    """Add the file's diagram rows to `rows` and return their number.

    A file that is not UTF-8 text, has a missing or different version line,
    or holds a malformed row is reported and ignored as a whole; a torn
    last line is reported and ignored alone.  Only the lines after the
    text this process last accepted from `path` are parsed, when the file
    still begins with that text.
    """
    global _LOADED
    last, known, loaded = _LOADED
    if last != path:
        known, loaded = "", {}
    _LOADED = ("", "", {})      # `loaded` is extended below
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        return 0
    except UnicodeDecodeError as e:
        print(f"cache file {path} is stale or corrupt ({e}); ignoring it",
              file=sys.stderr)
        return 0
    if not text:
        return 0
    if not (known and text.startswith(known)):
        if text.partition("\n")[0] != CACHE_VERSION:
            print(f"cache file {path} is stale or corrupt (first line is not "
                  f"{CACHE_VERSION}); ignoring it", file=sys.stderr)
            return 0
        known, loaded = CACHE_VERSION, {}    # parse after the version line
    end = text.rfind("\n") + 1          # text[end:] is a torn last line
    try:
        for line in text[len(known):end].split("\n"):
            if not line:
                continue
            row = json.loads(line)
            if "diagram" not in row:
                raise CacheCorrupt(f"unknown row kind {sorted(row)}")
            key, value = row["diagram"], row["value"]
            if not (isinstance(key, str) and isinstance(value, str)):
                raise CacheCorrupt(f"row {row!r} is not text")
            loaded[key] = parse_ring_text(value)
    except (ValueError, KeyError, TypeError, OverflowError,
            RecursionError) as e:
        print(f"cache file {path} is corrupt ({e}); ignoring it",
              file=sys.stderr)
        return 0
    if end < len(text):
        print(f"cache file {path} ends in a torn line; ignoring that line",
              file=sys.stderr)
    _LOADED = (path, text[:end], loaded)
    rows.update(loaded)
    return len(loaded)


# -- running jobs -----------------------------------------------------------------

def _parse_input(job: JobSpec) -> tuple[PlanarMap, int | None]:
    if job.kind == "braid":
        b = parse_braid(job.text)
        return braid_to_link(b), b.writhe()
    if job.kind == "pd":
        return parse_pd(job.text), None
    return parse_regraph(job.text), None


@reads_debug_once
def run(job: JobSpec, ctx: EvalContext | None = None) -> dict:
    """Execute one job; options apply in the order
    mirror -> invariant -> normalized -> specialization.

    A value stored under the diagram's key in the cache is served, and its
    3^c states count as `ctx.stats["state_hits"]`; in debug mode it is
    recomputed instead, and a difference raises InternalError."""
    ctx = ctx or EvalContext()
    if job.trace and ctx.trace is None:
        ctx.trace = []
    rows: dict = {}
    loaded = cache_load(job.cache_path, rows) if job.cache_path else 0
    t0 = time.perf_counter()
    diagram, writhe = _parse_input(job)
    crossings = len(diagram.crossings())
    if crossings > job.max_crossings:
        raise CeilingExceeded(
            f"{crossings} crossings exceed the ceiling {job.max_crossings}")
    if job.mirror:
        diagram = mirror(diagram)
        if writhe is not None:
            writhe = -writhe
    key = diagram_job_key(diagram) if job.cache_path else None
    value = rows.get(key)           # rows is empty with no cache
    if value is not None and not debug_mode():
        ctx.stats["state_hits"] += 3 ** crossings
    else:
        fresh = kauffman_state_sum(diagram, ctx).value
        if value is not None and value != fresh:
            raise InternalError("a stored diagram value differs from its "
                                "recomputation")
        value = rows[key] = fresh
    if job.oracle_check:
        oracle = kauffman_via_4valent(diagram)
        if oracle != value:
            raise InvalidMap(
                "oracle mismatch:\n  trivalent: %s\n  4-valent:  %s"
                % (to_canonical_text(value), to_canonical_text(oracle)))
    if job.normalized:
        value = normalized(InvariantResult(value, writhe, 3 ** crossings))
    doc = {
        "input": job.text,
        "value": _value_json(value),
        "statesEvaluated": 3 ** crossings,
    }
    if writhe is not None:
        doc["writhe"] = writhe
    if job.oracle_check:
        doc["oracleAgreement"] = True
    if job.so_n is not None:
        doc["specialized"] = qlaurent_text(specialize_soN(value, job.so_n))
    doc["elapsedMs"] = round(1000 * (time.perf_counter() - t0), 3)
    if job.trace:
        doc["trace"] = ctx.trace
    if job.cache_path and not debug_mode() and len(rows) != loaded:
        cache_store(job.cache_path, rows, kept=loaded)
    return doc


def _value_json(x: RingElem) -> dict:
    terms = [{"coeff": c, "expa": m[0], "expA": m[1], "expB": m[2]}
             for m, c in sorted(x.num.terms.items(), reverse=True)]
    return {"terms": terms, "denomPow": x.dpow}


def _render(doc: dict, job: JobSpec) -> str:
    if job.fmt == "json":
        return json.dumps(doc, sort_keys=True)
    terms = {(t["expa"], t["expA"], t["expB"]): t["coeff"]
             for t in doc["value"]["terms"]}
    lines = [to_canonical_text(RingElem(LaurentPoly(terms),
                                        doc["value"]["denomPow"]))]
    if "specialized" in doc:
        lines.append(doc["specialized"])
    return "\n".join(lines)


# -- argument parsing ----------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("text", metavar="input", help="diagram text")
    p.add_argument("--so-n", type=int, default=None, metavar="N",
                   help="specialize to the SO(N) polynomial in q")
    p.add_argument("--mirror", action="store_true",
                   help="switch every crossing before evaluating")
    p.add_argument("--oracle-check", action="store_true",
                   help="also run the 4-valent path and compare")
    p.add_argument("--max-crossings", type=int, default=14, metavar="N",
                   help="cap on the crossings of the 3^c state sum (default "
                        "14, 4,782,969 states); a larger input exits 1 with "
                        "CeilingExceeded. Pass a larger N to raise the cap")
    p.add_argument("--format", dest="fmt", choices=("text", "json"),
                   default="text")
    p.add_argument("--cache", dest="cache_path", default=None, metavar="PATH",
                   help="JSON-lines evaluation cache")
    p.add_argument("--trace", action="store_true",
                   help="report the reduction trace (JSON, stderr): one "
                        "{rule, face} entry per rule applied, the rule "
                        "lollipop or curl2 (curls), digon, triangle or "
                        "square4 (a wide digon with none, one or both of "
                        "its wide edges on the face), square (the "
                        "six-vertex square relation) or rotate (a wide-edge "
                        "rotation of a move-search script)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dubrovnik",
        description="Two-variable Kauffman polynomial of links and "
                    "knotted rigid-edge trivalent graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("eval-braid", help="evaluate a braid closure")
    _add_common(pb)
    pb.add_argument("--normalized", action="store_true",
                    help="multiply by a^(-writhe)")

    pp = sub.add_parser("eval-pd", help="evaluate a PD-coded link diagram")
    _add_common(pp)

    pg = sub.add_parser("eval-graph", help="evaluate a knotted-graph diagram")
    _add_common(pg)

    pv = sub.add_parser("verify", help="run the self-verification suites")
    pv.add_argument("--suite", default=None,
                    help="run only suites whose name contains this text")

    pbatch = sub.add_parser("batch", help="run JSON jobs from a file")
    pbatch.add_argument("file")

    args = ap.parse_args(argv)

    if args.command == "verify":
        from .verify import ALL_SUITES, run_all
        suites = None
        if args.suite is not None:
            suites = [s for s in ALL_SUITES if args.suite in s.__name__]
            if not suites:
                print(f"error: no suite name contains {args.suite!r}",
                      file=sys.stderr)
                return 1
        failed = 0
        for name, ok, detail in run_all(suites):
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
            failed += not ok
        return 2 if failed else 0

    if args.command == "batch":
        try:
            with open(args.file) as f:
                lines = f.readlines()
        except (OSError, UnicodeDecodeError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        rc = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            spec = line
            try:
                spec = json.loads(line)
                doc = run(JobSpec(**spec))
            except Exception as e:      # report and continue the batch
                text = spec.get("text") if isinstance(spec, dict) else line
                print(json.dumps({"input": text, "error": str(e)}))
                rc = 1
                continue
            print(json.dumps(doc, sort_keys=True))
        return rc

    kind = {"eval-braid": "braid", "eval-pd": "pd", "eval-graph": "regraph"}
    fields = vars(args)
    try:
        # each remaining argparse destination is a JobSpec field
        job = JobSpec(kind=kind[fields.pop("command")], **fields)
        doc = run(job)
    except (ParseError, InvalidMap, NonPlanar, CeilingExceeded,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if job.trace:
        print(json.dumps(doc.pop("trace", [])), file=sys.stderr)
    print(_render(doc, job))
    return 0


if __name__ == "__main__":
    sys.exit(main())
