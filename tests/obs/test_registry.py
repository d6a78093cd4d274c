"""MetricsRegistry semantics: counters, gauges, histograms, bounds.

The registry's two contracts are pinned here:

- label cardinality is bounded — new label sets past ``max_label_sets``
  fold into the ``other`` overflow series, existing series keep
  counting;
- everything is deterministic under an injectable clock.
"""

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.registry import OVERFLOW_LABEL


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_events", "events")
        counter.inc()
        counter.inc(3)
        assert counter.value() == 4

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_results", "results",
                                   ("result",))
        counter.inc(result="accepted")
        counter.inc(2, result="bad-mac")
        assert counter.value(result="accepted") == 1
        assert counter.value(result="bad-mac") == 2
        assert counter.value(result="timeout") == 0

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_mono", "")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        plain = registry.counter("repro_test_plain", "")
        labelled = registry.counter("repro_test_lab", "", ("kind",))
        with pytest.raises(ValueError):
            plain.inc(kind="x")
        with pytest.raises(ValueError):
            labelled.inc()
        with pytest.raises(ValueError):
            labelled.inc(wrong="x")

    def test_set_total_is_an_absolute_write(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_abs", "")
        counter._set_total(7)
        counter._set_total(5)  # shim semantics: attribute assignment
        assert counter.value() == 5


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_test_depth", "")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 13


class TestHistogram:
    def test_observations_land_in_le_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_lat", "",
                                  buckets=(0.001, 0.01, 0.1))
        hist.observe(0.0005)   # <= 0.001
        hist.observe(0.001)    # == bound -> still le=0.001
        hist.observe(0.05)     # <= 0.1
        hist.observe(99.0)     # +Inf
        sample = hist._snapshot()["samples"][0]
        assert sample["buckets"] == [2, 0, 1, 1]
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(0.0515 + 99.0)

    def test_buckets_must_be_strictly_increasing(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("repro_test_bad", "", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("repro_test_bad2", "", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("repro_test_bad3", "", buckets=())

    def test_default_buckets_are_shared_log_scale(self):
        assert len(DEFAULT_LATENCY_BUCKETS) == 13
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        for lo, hi in zip(DEFAULT_LATENCY_BUCKETS,
                          DEFAULT_LATENCY_BUCKETS[1:]):
            assert hi == pytest.approx(lo * 4.0)

    def test_timer_uses_the_injectable_clock(self):
        ticks = iter([10.0, 10.5])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        hist = registry.histogram("repro_test_timer", "",
                                  buckets=(0.1, 1.0))
        with hist.time():
            pass
        sample = hist._snapshot()["samples"][0]
        assert sample["sum"] == pytest.approx(0.5)
        assert sample["buckets"] == [0, 1, 0]


class TestCardinalityBound:
    def test_new_label_sets_fold_into_other(self):
        registry = MetricsRegistry(max_label_sets=3)
        counter = registry.counter("repro_test_ids", "", ("device",))
        for device in ("a", "b", "c"):
            counter.inc(device=device)
        counter.inc(device="hostile-1")
        counter.inc(device="hostile-2")
        assert counter.value(device="a") == 1
        assert counter.value(device=OVERFLOW_LABEL) == 2
        keys = {sample["labels"]["device"]
                for sample in counter._snapshot()["samples"]}
        assert keys == {"a", "b", "c", OVERFLOW_LABEL}

    def test_existing_series_keep_counting_after_the_cap(self):
        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("repro_test_keepers", "", ("k",))
        counter.inc(k="x")
        counter.inc(k="y")
        counter.inc(k="z")     # folds
        counter.inc(5, k="x")  # pre-cap series stays addressable
        assert counter.value(k="x") == 6
        assert counter.value(k=OVERFLOW_LABEL) == 1

    def test_max_label_sets_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_label_sets=0)


class TestRegistration:
    def test_registration_is_idempotent_by_name(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_test_same", "help", ("a",))
        second = registry.counter("repro_test_same", "other help", ("a",))
        assert first is second

    def test_kind_or_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_taken", "", ("a",))
        with pytest.raises(ValueError):
            registry.gauge("repro_test_taken", "", ("a",))
        with pytest.raises(ValueError):
            registry.counter("repro_test_taken", "", ("b",))

    def test_invalid_names_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad", "")
        with pytest.raises(ValueError):
            registry.counter("has spaces", "")
        with pytest.raises(ValueError):
            registry.counter("repro_ok", "", ("bad-label",))

    def test_get_and_snapshot_shape(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_b", "")
        registry.gauge("repro_test_a", "")
        counter.inc()
        assert registry.get("repro_test_b") is counter
        assert registry.get("missing") is None
        snapshot = registry.snapshot()
        # Name-sorted for deterministic rendering.
        assert [m["name"] for m in snapshot["metrics"]] == \
            ["repro_test_a", "repro_test_b"]
