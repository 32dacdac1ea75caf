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
a link's value depends on z = A - B only, every signature served from the
context's table of literal arrays (`skein.EvalContext.signature`) is
recomputed, every memoized transition row of the braid sweep is
recomputed, and a diagram value found in the cache is recomputed and
compared instead of served.  A mismatch raises `skein.InternalError`.
Debug mode reads the cache to check it and never writes it.  The variable
is read once per job, and once per call of an engine entry point
(`maps.reads_debug_once`), not once per map built.

The optional cache is a JSON-lines file.  Its first line names the file
format; a file whose first line is missing or different, or that is not
UTF-8 text, is reported and ignored, and the next store replaces it.
Every further row is

    {"diagram": <diagram key>, "value": <canonical polynomial text>}

the whole value of one literal diagram, keyed by `diagram_job_key`.  `run`
alone reads and writes these rows: it looks the diagram up before the
state sum and serves a stored value without enumerating states, so a
repeated run on the same input skips the state sum.  The reduction memo
is not persisted, so canonical signatures never leave the process.  Stores
write a temporary file and rename it over the old one, so a crash
mid-store leaves the previous file intact.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
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


def cache_store(path: str, rows: dict) -> None:
    """Write the whole-diagram rows, replacing `path` atomically."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(CACHE_VERSION + "\n")
            for key, value in rows.items():
                f.write(json.dumps({"diagram": key,
                                    "value": to_canonical_text(value)})
                        + "\n")
        os.replace(tmp, path)
    except BaseException:
        # the temporary file may never have been created
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cache_load(path: str, rows: dict) -> int:
    """Add the file's diagram rows to `rows` and return their number.

    A file that is not UTF-8 text, has a missing or different version line,
    or holds a malformed row is reported and ignored as a whole.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        return 0
    except UnicodeDecodeError as e:
        print(f"cache file {path} is stale or corrupt ({e}); ignoring it",
              file=sys.stderr)
        return 0
    if not lines:
        return 0
    if lines[0] != CACHE_VERSION:
        print(f"cache file {path} is stale or corrupt (first line is not "
              f"{CACHE_VERSION}); ignoring it", file=sys.stderr)
        return 0
    loaded: dict = {}
    try:
        for line in lines[1:]:
            if not line:
                continue
            row = json.loads(line)
            if "diagram" not in row:
                raise CacheCorrupt(f"unknown row kind {sorted(row)}")
            key, value = row["diagram"], row["value"]
            if not (isinstance(key, str) and isinstance(value, str)):
                raise CacheCorrupt(f"row {row!r} is not text")
            loaded[key] = parse_ring_text(value)
    except (ValueError, KeyError, TypeError) as e:
        print(f"cache file {path} is corrupt ({e}); ignoring it",
              file=sys.stderr)
        return 0
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
    crossings = len(diagram.crossing_nodes())
    if crossings > job.max_crossings:
        raise CeilingExceeded(
            f"{crossings} crossings exceed the ceiling {job.max_crossings}")
    if job.mirror:
        diagram = mirror(diagram)
        if writhe is not None:
            writhe = -writhe
    key = diagram_job_key(diagram)
    value = rows.get(key)
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
        cache_store(job.cache_path, rows)
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
    p.add_argument("--max-crossings", type=int, default=14)
    p.add_argument("--format", dest="fmt", choices=("text", "json"),
                   default="text")
    p.add_argument("--cache", dest="cache_path", default=None, metavar="PATH",
                   help="JSON-lines evaluation cache")
    p.add_argument("--trace", action="store_true",
                   help="report the reduction trace (JSON, stderr)")


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
