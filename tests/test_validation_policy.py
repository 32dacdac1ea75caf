"""Maps are validated where they enter; derived maps only in debug mode."""

import pytest

from dubrovnik import maps
from dubrovnik.corpus import dodecahedral_graphs
from dubrovnik.diagrams import parse_braid
from dubrovnik.invariants import bracket
from dubrovnik.maps import PlanarMap, Surgery
from dubrovnik.skein import EvalContext, evaluate
from dubrovnik.verify import (check_confluence, check_oracle,
                              check_path_agreement)


@pytest.fixture
def validate_calls(monkeypatch):
    """Count calls of PlanarMap.validate (subclasses reach it by super())."""
    calls = []
    real = PlanarMap.validate

    def counting(self):
        calls.append(type(self).__name__)
        real(self)

    monkeypatch.setattr(PlanarMap, "validate", counting)
    return calls


def test_derived_maps_unchecked_outside_debug_mode(monkeypatch, validate_calls):
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    graph = dodecahedral_graphs(1)[0]          # an input: validated on entry
    braid = parse_braid("n=3; 1 -2 1 -2 2 1")
    validate_calls.clear()
    evaluate(graph, EvalContext())
    bracket(braid, EvalContext())
    assert validate_calls == []


def test_every_surgery_checked_in_debug_mode(monkeypatch, validate_calls):
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    assert maps.debug_mode()
    unchecked = []
    finishes = []
    real_finish = Surgery.finish

    def finish(self, *args, **kw):
        before = len(validate_calls)
        out = real_finish(self, *args, **kw)
        finishes.append(out)
        if len(validate_calls) == before:
            unchecked.append(out)
        return out

    monkeypatch.setattr(Surgery, "finish", finish)
    evaluate(dodecahedral_graphs(1)[0], EvalContext())
    bracket(parse_braid("n=3; 1 -2 1 -2 2 1"), EvalContext())
    assert finishes and unchecked == []


def test_debug_variable_read_once_per_call(monkeypatch, validate_calls):
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    graph = dodecahedral_graphs(1)[0]
    braid = parse_braid("n=3; 1 -2 1 -2 2 1")
    validate_calls.clear()
    monkeypatch.setattr(maps.os, "environ", Environ())
    evaluate(graph, EvalContext())
    bracket(braid, EvalContext())
    assert reads == ["DUBROVNIK_DEBUG"] * 2 and validate_calls == []
    # the next call reads it again, so a change between calls takes effect
    monkeypatch.setattr(maps.os, "environ", Environ(DUBROVNIK_DEBUG="1"))
    evaluate(graph, EvalContext())
    assert reads == ["DUBROVNIK_DEBUG"] * 3 and validate_calls


def test_debug_mode_corpus(monkeypatch):
    """Debug mode re-checks every derived map and finds them all valid."""
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    for suite in (check_oracle, check_path_agreement, check_confluence):
        name, ok, detail = suite()
        assert ok, f"{name}: {detail}"
