"""Observability subsystem: metrics primitives, tracer, runtime switch,
and the invariant that instrumentation never changes decoded labels."""

import json
import threading

import pytest

from repro.core.engine import CaceEngine
from repro.core.smoother import OnlineSmoother
from repro.obs import provenance
from repro.obs import runtime as obs
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability off and clean."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestCounterGauge:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)
        assert reg.counter("x") is c  # get-or-create returns the instrument

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(3.0)
        g.inc()
        g.dec(0.5)
        assert g.value == 3.5

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("name")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("name")

    def test_counter_thread_safety(self):
        c = MetricsRegistry().counter("n")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestHistogram:
    def test_summary_and_percentiles(self):
        h = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for v in [0.5, 1.5, 1.5, 3.0]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == pytest.approx(6.5)
        assert s["min"] == 0.5 and s["max"] == 3.0
        # Percentiles are interpolated within buckets, clamped to min/max.
        assert s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"]
        with pytest.raises(ValueError):
            h.percentile(1.0)

    def test_empty_histogram_is_all_zero(self):
        s = Histogram("h").summary()
        assert s == {
            "count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_overflow_lands_in_inf_bucket(self):
        h = Histogram("h", buckets=[1.0])
        h.observe(50.0)
        assert h.bucket_counts() == [(1.0, 0), (float("inf"), 1)]

    def test_time_context_manager_observes(self):
        h = Histogram("h")
        with h.time():
            pass
        assert h.count == 1 and h.sum >= 0.0

    def test_default_buckets_cover_decode_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-4
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0


class TestRegistry:
    def test_scope_shares_storage_under_prefix(self):
        root = MetricsRegistry()
        child = root.scope("serve")
        child.counter("pushes").inc(2)
        assert root.counter("serve.pushes").value == 2
        assert set(child.snapshot()) == {"serve.pushes"}
        assert "serve.pushes" in root.snapshot()

    def test_scope_reset_only_drops_subtree(self):
        root = MetricsRegistry()
        root.counter("keep").inc()
        child = root.scope("drop")
        child.counter("x").inc()
        child.reset()
        assert set(root.snapshot()) == {"keep"}

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.histogram("b").observe(0.01)
        data = json.loads(reg.to_json())
        assert data["a"] == {"type": "counter", "value": 3}
        assert data["b"]["count"] == 1

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("router.steps").inc(7)
        reg.gauge("router.sessions_active").set(2)
        reg.histogram("push.seconds", buckets=[0.1]).observe(0.05)
        text = reg.render_prometheus()
        assert "# TYPE repro_router_steps counter" in text
        assert "repro_router_steps_total 7" in text
        assert "repro_router_sessions_active 2.0" in text
        assert 'repro_push_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_push_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_push_seconds_count 1" in text


class TestTracer:
    def test_nested_spans(self):
        tracer = Tracer()
        with tracer.span("decode", family="coupled"):
            with tracer.span("trellis_sweep"):
                pass
        roots = tracer.roots()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "decode"
        assert root.attrs == {"family": "coupled"}
        assert [c.name for c in root.children] == ["trellis_sweep"]
        assert root.duration >= root.children[0].duration >= 0.0

    def test_root_ring_is_bounded(self):
        tracer = Tracer(max_roots=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots()] == ["s2", "s3", "s4"]

    def test_to_dict_is_json_serialisable(self):
        tracer = Tracer()
        with tracer.span("a", t0=1):
            pass
        json.dumps(tracer.to_dict())


class TestRuntimeSwitch:
    def test_defaults_off_and_nullspan(self):
        assert not obs.metrics_enabled() and not obs.tracing_enabled()
        assert obs.registry_if_enabled() is None
        assert obs.span("x") is NULL_SPAN
        assert obs.timed_span("x", metric="m") is NULL_SPAN

    def test_enable_routes_to_globals(self):
        obs.enable(metrics=True, tracing=True)
        assert obs.registry_if_enabled() is obs.get_registry()
        with obs.timed_span("work", metric="w.seconds", counts={"w.items": 3}):
            pass
        assert obs.get_registry().histogram("w.seconds").count == 1
        assert obs.get_registry().counter("w.items").value == 3
        assert [s.name for s in obs.get_tracer().roots()] == ["work"]

    def test_metrics_without_tracing_records_no_spans(self):
        obs.enable(metrics=True, tracing=False)
        with obs.timed_span("work", metric="w.seconds"):
            pass
        assert obs.get_registry().histogram("w.seconds").count == 1
        assert obs.get_tracer().roots() == []

    def test_provenance_keys(self):
        p = provenance()
        assert {"python", "numpy", "cpu_count", "recorded_at"} <= set(p)
        json.dumps(p)


class TestInstrumentedDecode:
    @pytest.fixture(scope="class")
    def fitted(self, cace_split):
        train, test = cace_split
        obs.disable()
        engine = CaceEngine(strategy="c2", seed=23).fit(train)
        return engine, test

    def test_labels_bit_identical_and_registry_populated(self, fitted):
        engine, test = fitted
        seq = test.sequences[0]
        baseline = engine.model_.decode(seq)
        obs.enable(metrics=True, tracing=True)
        instrumented = engine.model_.decode(seq)
        assert instrumented == baseline
        snap = obs.get_registry().snapshot()
        assert snap["decode.nchain.seconds"]["count"] == 1
        assert snap["decode.nchain.steps"]["value"] == len(seq)
        assert snap["decode.nchain.sweep_seconds"]["count"] == 1
        assert snap["kernel.prepare_seconds"]["count"] >= 1
        names = [s.name for s in obs.get_tracer().roots()]
        assert "decode" in names

    def test_predict_dataset_serial_metrics(self, fitted):
        engine, test = fitted
        obs.enable(metrics=True)
        baseline_off = None
        out = engine.predict_dataset(test, workers=1)
        snap = obs.get_registry().snapshot()
        assert snap["engine.sessions_decoded"]["value"] == len(test.sequences)
        assert snap["engine.decode_seconds"]["count"] == len(test.sequences)
        obs.disable()
        baseline_off = engine.predict_dataset(test, workers=1)
        assert out == baseline_off

    def test_smoother_metrics_and_cache_accounting(self, fitted):
        engine, test = fitted
        seq = test.sequences[0]
        baseline = OnlineSmoother(engine.model_, lag=2).run(seq)
        obs.enable(metrics=True)
        instrumented = OnlineSmoother(engine.model_, lag=2).run(seq)
        assert instrumented == baseline
        reg = obs.get_registry()
        assert reg.counter("smoother.steps").value == len(seq)
        assert reg.counter("smoother.commits").value == len(seq)
        assert reg.histogram("smoother.push_seconds").count == len(seq)
        # Push-time blocks: one per step after the first; the lag-window
        # sweeps reuse them instead of recomputing.
        assert reg.counter("smoother.trans_blocks_computed").value == len(seq) - 1
        assert reg.counter("smoother.trans_blocks_reused").value > 0
