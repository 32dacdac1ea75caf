"""Command-line interface.

Subcommands:

    eval-braid "1 1"            Kauffman polynomial of a braid closure
    eval-pd    "X(...) ..."     same for a PD-coded link diagram
    eval-graph "W(...) X(...)"  invariant of a knotted-graph diagram
    verify                      run the self-verification suites
    batch FILE                  one JSON job per line

Exit codes: 0 success, 1 computation error, 2 verification failure.

The optional cache is a JSON-lines file.  Its first line names the file
format and the signature scheme; a file whose first line is missing or
different is reported and ignored, and the next store replaces it.  Every
further row is one of

    {"memo": <signature>, "value": <canonical polynomial text>}
    {"diagram": <diagram key>, "value": <canonical polynomial text>}

A memo row persists one entry of the reduction memo; its signature is the
canonical signature written as nested lists.  A diagram row persists the
whole value of one literal diagram, keyed by `invariants.diagram_job_key`,
which is what makes a repeated run on the same input skip the state sum.
Stores write a temporary file and rename it over the old one, so a crash
mid-store leaves the previous file intact.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass

from .diagrams import (ParseError, braid_to_link, mirror, parse_braid,
                       parse_pd, parse_regraph)
from .fourvalent import kauffman_via_4valent
from .invariants import kauffman_state_sum, n2_closed_form, normalized
from .maps import SIGNATURE_SCHEME, InvalidMap, NonPlanar, PlanarMap
from .ring import (RingElem, parse_ring_text, qlaurent_text, specialize_soN,
                   to_canonical_text)
from .skein import EvalContext


class CeilingExceeded(ValueError):
    """More crossings than the configured ceiling."""


class CacheCorrupt(ValueError):
    """Malformed cache line."""


@dataclass
class JobSpec:
    kind: str                     # braid | pd | regraph
    text: str
    so_n: int | None = None
    n2_fast: bool = False
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
        if self.fmt not in ("text", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")


# -- cache -----------------------------------------------------------------------

CACHE_VERSION = json.dumps({"format": "dubrovnik-cache/2",
                            "signature": SIGNATURE_SCHEME})


def _sig_of_json(x) -> tuple:
    """Signature from its nested-list form [loops, [[[t, n, w], ...], ...]]."""
    loops, encs = x
    return (loops, tuple(tuple(tuple(e) for e in enc) for enc in encs))


def cache_store(path: str, ctx: EvalContext) -> None:
    """Write the memo and the whole-diagram results, replacing `path` atomically."""
    texts: dict[RingElem, str] = {}

    def text_of(value: RingElem) -> str:
        t = texts.get(value)
        if t is None:
            t = texts[value] = to_canonical_text(value)
        return t

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(CACHE_VERSION + "\n")
            for sig, value in ctx.memo.items():
                f.write(json.dumps({"memo": sig, "value": text_of(value)})
                        + "\n")
            for key, value in ctx.results.items():
                f.write(json.dumps({"diagram": key, "value": text_of(value)})
                        + "\n")
        os.replace(tmp, path)
    except BaseException:
        # the temporary file may never have been created
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cache_load(path: str, ctx: EvalContext, verify: bool = False) -> int:
    """Load cache rows into the context and return their number.

    A file with a missing or different version line, or a malformed row, is
    reported and ignored as a whole.  With verify=True (or DUBROVNIK_DEBUG=1
    in the environment) no row is served: memo and diagram rows go to the
    consistency checker, so every value is recomputed and compared with its
    cached claim as it is reached.
    """
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        return 0
    if not lines:
        return 0
    if lines[0] != CACHE_VERSION:
        print(f"cache file {path} is stale or corrupt (first line is not "
              f"{CACHE_VERSION}); ignoring it", file=sys.stderr)
        return 0
    memo: dict = {}
    results: dict = {}
    values: dict[str, RingElem] = {}
    try:
        for line in lines[1:]:
            if not line:
                continue
            row = json.loads(line)
            text = row["value"]
            value = values.get(text)
            if value is None:
                value = values[text] = parse_ring_text(text)
            if "memo" in row:
                memo[_sig_of_json(row["memo"])] = value
            elif "diagram" in row:
                results[row["diagram"]] = value
            else:
                raise CacheCorrupt(f"unknown row kind {sorted(row)}")
    except (ValueError, KeyError, TypeError) as e:
        print(f"cache file {path} is corrupt ({e}); ignoring it",
              file=sys.stderr)
        return 0
    if verify:
        if ctx.consistency is None:
            ctx.consistency = {}
        ctx.consistency.update(memo)
        ctx.consistency.update(results)
    else:
        ctx.memo.update(memo)
        ctx.results.update(results)
    return len(memo) + len(results)


# -- running jobs -----------------------------------------------------------------

def _parse_input(job: JobSpec) -> tuple[PlanarMap, int | None]:
    if job.kind == "braid":
        b = parse_braid(job.text)
        return braid_to_link(b), b.writhe()
    if job.kind == "pd":
        return parse_pd(job.text), None
    return parse_regraph(job.text), None


def run(job: JobSpec, ctx: EvalContext | None = None) -> dict:
    """Execute one job; options apply in the order
    mirror -> invariant -> normalized -> specialization."""
    ctx = ctx or EvalContext()
    if job.trace and ctx.trace is None:
        ctx.trace = []
    loaded = 0
    if job.cache_path:
        debug = bool(os.environ.get("DUBROVNIK_DEBUG"))
        loaded = cache_load(job.cache_path, ctx, verify=debug)
    t0 = time.perf_counter()
    diagram, writhe = _parse_input(job)
    crossings = len(diagram.crossing_nodes())
    if crossings > job.max_crossings:
        raise CeilingExceeded(
            f"{crossings} crossings exceed the ceiling {job.max_crossings}")
    if job.mirror:
        diagram = mirror(diagram)
    if job.n2_fast:
        if crossings:
            raise ValueError("--n2-fast requires a crossingless graph input")
        qpoly = n2_closed_form(diagram)
        doc = {
            "input": job.text,
            "value": None,
            "specialized": qlaurent_text(qpoly),
            "statesEvaluated": 0,
            "source": "n2Closed",
            "elapsedMs": round(1000 * (time.perf_counter() - t0), 3),
        }
        return doc
    result = kauffman_state_sum(diagram, ctx)
    result.writhe = writhe
    value = result.value
    if job.oracle_check:
        oracle = kauffman_via_4valent(diagram)
        if oracle != value:
            raise InvalidMap(
                "oracle mismatch:\n  trivalent: %s\n  4-valent:  %s"
                % (to_canonical_text(value), to_canonical_text(oracle)))
    if job.normalized:
        value = normalized(result)
    doc = {
        "input": job.text,
        "value": _value_json(value),
        "statesEvaluated": result.states_evaluated,
        "source": result.source,
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
    if job.cache_path:
        total = len(ctx.memo) + len(ctx.results)
        if total != loaded:
            cache_store(job.cache_path, ctx)
    return doc


def _value_json(x: RingElem) -> dict:
    terms = [{"coeff": c, "expa": m[0], "expA": m[1], "expB": m[2]}
             for m, c in sorted(x.num.terms.items(), reverse=True)]
    return {"terms": terms, "denomPow": x.dpow}


def _render(doc: dict, job: JobSpec) -> str:
    if job.fmt == "json":
        return json.dumps(doc, sort_keys=True)
    lines = []
    if doc.get("value") is not None:
        terms = {(t["expa"], t["expA"], t["expB"]): t["coeff"]
                 for t in doc["value"]["terms"]}
        from .ring import LaurentPoly
        val = RingElem(LaurentPoly(terms), doc["value"]["denomPow"],
                       _canonical=True)
        lines.append(to_canonical_text(val))
    if "specialized" in doc:
        lines.append(doc["specialized"])
    return "\n".join(lines)


# -- argument parsing ----------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, graph: bool = False) -> None:
    p.add_argument("input", help="diagram text")
    p.add_argument("--so-n", type=int, default=None, metavar="N",
                   help="specialize to the SO(N) polynomial in q")
    p.add_argument("--mirror", action="store_true",
                   help="switch every crossing before evaluating")
    p.add_argument("--oracle-check", action="store_true",
                   help="also run the 4-valent path and compare")
    p.add_argument("--max-crossings", type=int, default=14)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cache", default=None, metavar="PATH",
                   help="JSON-lines evaluation cache")
    p.add_argument("--trace", action="store_true",
                   help="report the reduction trace (JSON, stderr)")
    if graph:
        p.add_argument("--n2-fast", action="store_true",
                       help="use the N=2 closed form (crossingless input only)")


def _job_from_args(kind: str, args) -> JobSpec:
    return JobSpec(
        kind=kind,
        text=args.input,
        so_n=args.so_n,
        n2_fast=getattr(args, "n2_fast", False),
        mirror=args.mirror,
        normalized=getattr(args, "normalized", False),
        oracle_check=args.oracle_check,
        max_crossings=args.max_crossings,
        fmt=args.format,
        cache_path=args.cache,
        trace=args.trace,
    )


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
    _add_common(pg, graph=True)

    pv = sub.add_parser("verify", help="run the self-verification suites")
    pv.add_argument("--suite", default=None,
                    help="run only suites whose name contains this text")

    pbatch = sub.add_parser("batch", help="run JSON jobs from a file")
    pbatch.add_argument("file")

    args = ap.parse_args(argv)

    if args.command == "verify":
        from .verify import ALL_SUITES, run_all
        suites = ALL_SUITES
        if args.suite:
            suites = [s for s in ALL_SUITES if args.suite in s.__name__]
        failed = 0
        for name, ok, detail in run_all(suites):
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
            failed += not ok
        return 2 if failed else 0

    if args.command == "batch":
        rc = 0
        with open(args.file) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                spec = json.loads(line)
                job = JobSpec(**spec)
                try:
                    doc = run(job)
                except Exception as e:      # report and continue the batch
                    print(json.dumps({"input": spec.get("text"),
                                      "error": str(e)}))
                    rc = 1
                    continue
                print(json.dumps(doc, sort_keys=True))
        return rc

    kind = {"eval-braid": "braid", "eval-pd": "pd", "eval-graph": "regraph"}
    try:
        job = _job_from_args(kind[args.command], args)
        doc = run(job)
    except (ParseError, InvalidMap, NonPlanar, CeilingExceeded,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if job.trace:
        print(json.dumps(doc.pop("trace", [])), file=sys.stderr)
    print(_render(doc, job))
    return 0


if __name__ == "__main__":
    sys.exit(main())
