"""Span tracer: self-time arithmetic, wrapping under aliases, missing spans."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
from harness import TRACED, missing_spans  # noqa: E402


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_direct_children_only():
    # x.a [0, 10] holds y.b [1, 4] and y.c [5, 9]; y.c holds x.d [6, 7]
    tracer = spans.Tracer(clock=fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    a = tracer.enter("x.a")
    b = tracer.enter("y.b")
    tracer.exit(b)
    c = tracer.enter("y.c")
    d = tracer.enter("x.d")
    tracer.exit(d)
    tracer.exit(c)
    tracer.exit(a)

    names, layers = spans.summarize(tracer)
    assert {n: s.self_s for n, s in names.items()} == {"x.a": 3, "y.b": 3, "y.c": 3, "x.d": 1}
    assert {n: s.wall_s for n, s in names.items()} == {"x.a": 10, "y.b": 3, "y.c": 4, "x.d": 1}
    assert layers["x"].self_s == 4 and layers["y"].self_s == 6
    # x.d runs inside x.a, so layer x's wall time counts x.a alone
    assert layers["x"].wall_s == 10 and layers["y"].wall_s == 7
    assert layers["x"].calls == 2


def test_nested_calls_of_one_name_count_wall_time_once():
    tracer = spans.Tracer(clock=fake_clock([0, 2, 5, 9]))
    outer = tracer.enter("m.f")
    inner = tracer.enter("m.f")
    tracer.exit(inner)
    tracer.exit(outer)
    names, _ = spans.summarize(tracer)
    assert names["m.f"].calls == 2
    assert names["m.f"].self_s == 9
    assert names["m.f"].wall_s == 9


def test_summarize_empty_tracer():
    assert spans.summarize(spans.Tracer()) == ({}, {})


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.a defines f and a class; pkg.b imports f by name and calls it."""
    pkg = types.ModuleType("pkg")
    a = types.ModuleType("pkg.a")
    b = types.ModuleType("pkg.b")

    def f(x):
        return x + 1

    def g(x):
        if x < 0:
            raise ValueError("negative")
        return b.f(x) * 2

    class Log:
        @classmethod
        def load(cls, x):
            return (cls, x)

    a.f, a.Log, b.f, b.g = f, Log, f, g
    for name, module in (("pkg", pkg), ("pkg.a", a), ("pkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    return a, b


def test_installed_wraps_every_alias_and_restores_originals(fake_package):
    a, b = fake_package
    originals = (a.f, b.f, b.g, a.Log.__dict__["load"])
    seen = []
    targets = [
        spans.Target("pkg.a", "f", on_return=lambda t, *rest: seen.append(t.current())),
        spans.Target("pkg.b", "g", on_raise=lambda t, exc: t.counts.__setitem__("raised", 1)),
        spans.Target("pkg.a", "Log.load"),
    ]
    tracer = spans.Tracer()
    with spans.installed(tracer, targets, "pkg") as not_found:
        assert not_found == []
        assert b.g(1) == 4
        assert a.Log.load(7) == (a.Log, 7)
        with pytest.raises(ValueError):
            b.g(-1)
    names, _ = spans.summarize(tracer)
    assert names["a.f"].calls == 1 and names["b.g"].calls == 2
    assert names["a.Log.load"].calls == 1
    # the hook runs after the span closed, so it sees the caller's span
    assert seen == ["b.g"]
    assert tracer.counts["raised"] == 1
    assert (a.f, b.f, b.g, a.Log.__dict__["load"]) == originals
    assert isinstance(a.Log.__dict__["load"], classmethod)


def test_target_that_moved_is_reported_not_found(fake_package):
    tracer = spans.Tracer()
    targets = [spans.Target("pkg.a", "gone"), spans.Target("pkg.a", "Nope.load")]
    with spans.installed(tracer, targets, "pkg") as not_found:
        pass
    assert not_found == ["a.gone", "a.Nope.load"]


def test_missing_spans_names_expected_spans_that_never_fired():
    calls = {t.name: 1 for t in TRACED}
    calls["trainer.gradnorm_plan"] = 0
    calls["model.per_sample_grad_norms"] = 0
    # gradnorm-only spans are not expected when gradnorm_is does not run
    assert missing_spans(calls, [], ["fedavg", "isfl"]) == []
    assert missing_spans(calls, [], ["isfl", "gradnorm_is"]) == [
        "model.per_sample_grad_norms",
        "trainer.gradnorm_plan",
    ]
    calls["isweights.solve_is_weights"] = 0
    assert missing_spans(calls, ["trainer.local_train"], ["fedavg", "isfl"]) == [
        "trainer.local_train",
        "isweights.solve_is_weights",
    ]
    # an isfl-only span is not expected when isfl does not run
    assert missing_spans(calls, [], ["fedavg", "rw_is"]) == []
