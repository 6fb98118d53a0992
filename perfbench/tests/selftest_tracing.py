"""Span arithmetic and use-site wrapping of the tracer."""

import sys
import types

import pytest

from tracing import Installer, SpanIndex, Tracer


def span(id_, name, start, end, parent=-1):
    return [id_, name, start, end, parent]


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping: union 5)
    # and [8, 9]; a grandchild inside [2, 6] must not count twice.
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, 0),
        span(2, "b", 2.0, 6.0, 0),
        span(3, "c", 8.0, 9.0, 0),
        span(4, "leaf", 2.5, 5.0, 2),
    ]
    index = SpanIndex(spans)
    assert index.self_ms("root") == pytest.approx(1e3 * (10.0 - 5.0 - 1.0))
    assert index.self_ms("b") == pytest.approx(1e3 * (4.0 - 2.5))
    assert index.self_ms("leaf") == pytest.approx(1e3 * 2.5)


def test_children_are_clipped_to_their_parent():
    spans = [span(0, "root", 0.0, 4.0), span(1, "late", 3.0, 6.0, 0)]
    assert SpanIndex(spans).self_ms("root") == pytest.approx(1e3 * 3.0)


def test_nested_spans_of_one_group_count_once():
    spans = [
        span(0, "enc", 0.0, 4.0),
        span(1, "enc", 1.0, 2.0, 0),
        span(2, "other", 5.0, 6.0),
        span(3, "enc", 5.2, 5.5, 2),
    ]
    index = SpanIndex(spans)
    assert index.total_ms("enc") == pytest.approx(1e3 * (4.0 + 0.3))
    assert index.calls("enc") == 2
    assert index.total_ms("enc", "other") == pytest.approx(1e3 * 5.0)


def test_live_spans_nest_by_call_stack():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = tracer.spans
    assert inner[4] == outer[0] and outer[4] == -1
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.defs.f`` imported by name into ``fakepkg.user``."""

    def f(x):
        return x + 1

    defs = types.ModuleType("fakepkg.defs")
    defs.f = f
    user = types.ModuleType("fakepkg.user")
    user.f = f
    user.call = lambda x: user.f(x)
    pkg = types.ModuleType("fakepkg")
    for name, module in (("fakepkg", pkg), ("fakepkg.defs", defs), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return f, defs, user


def test_a_function_is_wrapped_where_it_is_used(fake_package):
    f, defs, user = fake_package
    tracer = Tracer()
    installer = Installer(tracer, package="fakepkg")
    sites = installer.wrap_function("f", f)
    assert sorted(sites) == ["fakepkg.defs", "fakepkg.user"]
    assert user.call(1) == 2 and defs.f(2) == 3
    assert tracer.site_calls[("f", "fakepkg.user")] == 1
    assert tracer.site_calls[("f", "fakepkg.defs")] == 1
    installer.uninstall()
    assert defs.f is f and user.f is f


def test_method_aliases_are_wrapped_together():
    class Model:
        def forward(self):
            return "out"

        __call__ = forward

    module = types.ModuleType("fakemod")
    module.Model = Model
    sys.modules["fakemod"] = module
    try:
        tracer = Tracer()
        installer = Installer(tracer)
        installer.wrap("model.forward", "fakemod:Model.forward")
        assert Model()() == "out" and Model().forward() == "out"
        assert len(tracer.spans) == 2
        installer.uninstall()
        assert Model.__dict__["__call__"] is Model.__dict__["forward"]
    finally:
        del sys.modules["fakemod"]


def test_generators_get_one_span_per_item():
    tracer = Tracer()

    def numbers():
        yield from range(3)

    wrapped = tracer.wrap("gen", numbers)
    assert list(wrapped()) == [0, 1, 2]
    # three items plus the final next() that raises StopIteration
    assert [s[1] for s in tracer.spans] == ["gen"] * 4
    assert tracer.counters["gen.items"] == 3
