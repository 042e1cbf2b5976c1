"""The tracing core: nesting, paths, breakdowns, zero-overhead disabled."""

import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.observability.tracing import (
    Tracer,
    get_tracer,
    set_tracer,
    span,
    tracing,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    set_tracer(None)


class TestSpans:
    def test_paths_compose_by_nesting(self):
        t = Tracer()
        with t.span("step"):
            with t.span("forward"):
                with t.span("moe"):
                    with t.span("sdd"):
                        pass
        paths = [s.path for s in t.spans]
        assert paths == [
            "step/forward/moe/sdd",
            "step/forward/moe",
            "step/forward",
            "step",
        ]  # close order: children before parents

    def test_durations_nested_within_parent(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        inner, outer = t.spans
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert outer.duration >= inner.duration

    def test_args_recorded(self):
        t = Tracer()
        with t.span("step", {"step": 7}):
            pass
        assert t.spans[0].args == {"step": 7}

    def test_unbalanced_exit_raises(self):
        t = Tracer()
        a = t.open("a")
        t.open("b")
        with pytest.raises(RuntimeError, match="unbalanced"):
            t.close(a)

    def test_breakdown_sums_repeated_phases(self):
        t = Tracer()
        with t.span("step"):
            for _ in range(3):
                with t.span("forward"):
                    pass
            with t.span("backward"):
                pass
        root = t.last_root("step")
        bd = t.breakdown(root)
        assert set(bd) == {"forward", "backward"}
        assert bd["forward"] == pytest.approx(
            sum(s.duration for s in t.spans if s.name == "forward")
        )

    def test_last_root_and_roots(self):
        t = Tracer()
        for i in range(3):
            with t.span("step", {"step": i}):
                pass
        assert len(t.roots("step")) == 3
        assert t.last_root("step").args == {"step": 2}
        assert t.last_root("eval") is None

    def test_total_by_path(self):
        t = Tracer()
        with t.span("step"):
            with t.span("forward"):
                pass
        with t.span("forward"):  # different path: a root this time
            pass
        assert t.total("step/forward") > 0.0
        assert t.total("forward") > 0.0

    def test_reset_refuses_open_spans(self):
        t = Tracer()
        t.open("dangling")
        with pytest.raises(RuntimeError, match="open span"):
            t.reset()

    def test_reset_clears(self):
        t = Tracer()
        with t.span("a"):
            pass
        t.sample("g", 1.0)
        t.reset()
        assert t.spans == [] and t.counter_samples == []


class TestGlobalHook:
    def test_disabled_records_nothing(self):
        assert get_tracer() is None
        with span("step"):
            with span("forward"):
                pass
        # Nothing was installed, so nothing can have recorded anything.
        assert get_tracer() is None

    def test_enabled_records_through_module_hook(self):
        with tracing() as t:
            with span("step"):
                with span("forward"):
                    pass
        assert [s.path for s in t.spans] == ["step/forward", "step"]
        assert get_tracer() is None  # restored on exit

    def test_tracing_restores_previous_tracer(self):
        outer = Tracer()
        set_tracer(outer)
        with tracing() as inner:
            assert get_tracer() is inner
        assert get_tracer() is outer

    def test_disabled_span_allocates_nothing(self):
        """The disabled hook is one None check + a shared singleton."""
        assert get_tracer() is None
        # Warm up: interned name, bytecode caches.
        for _ in range(100):
            with span("hot"):
                pass
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(1000):
            with span("hot"):
                pass
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # A per-call allocation would show as >= 1000 * sizeof(smallest
        # object); allow only a constant sliver of interpreter noise.
        assert after - before < 256, (
            f"disabled span() path allocated {after - before} bytes over "
            "1000 calls"
        )

    def test_disabled_span_returns_shared_singleton(self):
        assert span("a") is span("b")


class TestThreads:
    """A tracer shared by threads nests each thread's spans on its own
    stack: ``sim`` ranks are threads, and the collective holds every
    rank inside its span at once."""

    def test_traced_sim_ranks_exchange_a_bucket(self):
        from repro.distributed import run_distributed

        def body(group):
            # Rank 0 opens its spans first and closes them first: on one
            # shared stack each of its exits finds rank 1's span innermost.
            arr = np.full(3, group.rank + 1.0, np.float32)
            if group.rank:
                time.sleep(0.05)
            with span("step"):
                group.all_reduce_bucket([arr])
                if group.rank:
                    time.sleep(0.05)
            return arr

        with tracing() as t:
            res = run_distributed(body, 2, backend="sim")
        for got in res.values:
            np.testing.assert_array_equal(got, np.full(3, 3.0, np.float32))
        for rank in (0, 1):
            mine = [s for s in t.spans if s.thread == f"rank{rank}"]
            assert [s.path for s in mine] == ["step/all_reduce", "step"]
            root = mine[-1]
            assert [c.path for c in t.children(root)] == ["step/all_reduce"]

    def test_each_thread_exports_its_own_track(self):
        from repro.observability.export import chrome_trace

        t = Tracer()
        with t.span("main"):
            pass
        thread = threading.Thread(target=self._two_spans, args=(t,), name="w")
        thread.start()
        thread.join()
        events = [e for e in chrome_trace(t)["traceEvents"] if e["ph"] == "X"]
        tracks = {e["name"]: e["tid"] for e in events}
        assert tracks == {"main": 0, "inner": 1, "outer": 1}

    @staticmethod
    def _two_spans(t):
        with t.span("outer"):
            with t.span("inner"):
                pass
