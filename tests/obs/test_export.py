"""Prometheus/JSON renderers, and the golden-file campaign scrape.

The golden file pins the *entire* rendered scrape of a 64-device
hostile campaign — byte for byte — so any drift in metric names,
help strings, label sets, value formatting, or the campaign's
deterministic counts is an explicit, reviewable diff.  Regenerate
after an intentional change with:

    PYTHONPATH=src python -c "
    from tests.obs.test_export import campaign_scrape
    import pathlib
    pathlib.Path('tests/obs/golden_scrape.prom').write_text(
        campaign_scrape()[0])
    "
"""

import json
from pathlib import Path

import pytest

from repro.fleet import (
    FaultModel,
    FleetSimulator,
    ReplayAdversary,
    TamperAdversary,
)
from repro.obs import (
    MetricsRegistry,
    format_value,
    instrument_service,
    parse_prometheus,
    render_json,
    render_prometheus,
)
from repro.service import AuthService, FleetConfig

GOLDEN_PATH = Path(__file__).parent / "golden_scrape.prom"

#: Zero-noise PUF so the campaign transcript is bit-deterministic.
FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16,
                noise_mw=0.0)


def campaign_scrape():
    """Scrape of a deterministic 64-device hostile campaign."""
    service = AuthService.provision(FleetConfig(
        n_devices=64, seed=1103, puf=FAST_PUF))
    simulator = FleetSimulator(
        service,
        faults=FaultModel(request_drop=0.05, response_drop=0.05,
                          confirmation_drop=0.10),
        adversaries=[ReplayAdversary(probability=0.3),
                     TamperAdversary(probability=0.05, factor=1.5)],
    )
    # Exact-binary clock steps: even if a timer fires, every timestamp
    # and delta is representable, so the scrape never picks up float
    # noise from the host.
    ticks = {"now": 0.0}

    def clock():
        ticks["now"] += 1.0 / 1024.0
        return ticks["now"]

    registry = MetricsRegistry(clock=clock)
    obs = instrument_service(service, registry)
    stats = simulator.run_campaign(4)
    return render_prometheus(registry.snapshot()), stats, obs


class TestFormatValue:
    def test_integral_floats_render_bare(self):
        assert format_value(3.0) == "3"
        assert format_value(0) == "0"
        assert format_value(-17.0) == "-17"

    def test_fractional_floats_render_repr(self):
        assert format_value(0.5) == "0.5"
        assert format_value(1e-06) == "1e-06"

    def test_huge_integers_stay_floats(self):
        assert format_value(1e18) == repr(1e18)

    def test_infinities(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"


class TestLabelEscaping:
    def test_spec_escapes_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_esc", "h", ("who",))
        hostile = 'back\\slash "quoted"\nnewline'
        counter.inc(7, who=hostile)
        text = render_prometheus(registry.snapshot())
        assert '\\\\' in text and '\\"' in text and "\\n" in text
        # Raw newline must never appear inside a sample line.
        for line in text.splitlines():
            assert line.startswith(("#", "repro_test_esc_total"))
        parsed = parse_prometheus(text)
        assert parsed[("repro_test_esc_total",
                       (("who", hostile),))] == 7.0

    def test_help_newlines_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_help", "line one\nline two")
        text = render_prometheus(registry.snapshot())
        assert "# HELP repro_test_help_total line one\\nline two" in text


class TestCounterSuffix:
    def test_total_suffix_is_appended_once(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_things", "").inc()
        registry.counter("repro_test_done_total", "").inc()
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert ("repro_test_things_total", ()) in parsed
        assert ("repro_test_done_total", ()) in parsed
        assert ("repro_test_done_total_total", ()) not in parsed


class TestHistogramRendering:
    def test_buckets_are_cumulative_and_capped_by_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_hist", "",
                                  buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            hist.observe(value)
        text = render_prometheus(registry.snapshot())
        parsed = parse_prometheus(text)
        series = [parsed[("repro_test_hist_bucket", (("le", le),))]
                  for le in ("0.001", "0.01", "0.1", "+Inf")]
        assert series == [1.0, 3.0, 4.0, 5.0]
        # Monotone non-decreasing, and +Inf equals the count.
        assert series == sorted(series)
        assert series[-1] == parsed[("repro_test_hist_count", ())]
        assert parsed[("repro_test_hist_sum", ())] == \
            pytest.approx(0.0005 + 0.005 + 0.005 + 0.05 + 5.0)

    def test_labelled_histogram_series_carry_their_labels(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_lat", "", ("phase",),
                                  buckets=(1.0,))
        hist.observe(0.5, phase="batch")
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert parsed[("repro_test_lat_bucket",
                       (("le", "1"), ("phase", "batch")))] == 1.0
        assert parsed[("repro_test_lat_count",
                       (("phase", "batch"),))] == 1.0


class TestCardinalityOverflowRendering:
    def test_overflow_series_renders_as_other(self):
        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("repro_test_flood", "", ("device",))
        counter.inc(device="dev-0")
        counter.inc(device="dev-1")
        for n in range(50):
            counter.inc(device=f"hostile-{n}")
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert parsed[("repro_test_flood_total",
                       (("device", "other"),))] == 50.0
        # The flood created exactly one series, not fifty.
        floods = [key for key in parsed
                  if key[0] == "repro_test_flood_total"]
        assert len(floods) == 3


class TestRenderJson:
    def test_canonical_json_round_trips_the_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_j", "", ("k",)).inc(k="v")
        snapshot = registry.snapshot()
        text = render_json(snapshot)
        assert json.loads(text) == snapshot
        # Canonical: sorted keys, so equal snapshots render equal text.
        assert text == json.dumps(snapshot, sort_keys=True)
        assert "\n" in render_json(snapshot, indent=2)


class TestGoldenScrape:
    def test_hostile_campaign_scrape_matches_golden_file(self):
        scrape, _, _ = campaign_scrape()
        golden = GOLDEN_PATH.read_text()
        assert scrape == golden, (
            "rendered scrape drifted from tests/obs/golden_scrape.prom — "
            "regenerate it (see module docstring) if the change is "
            "intentional"
        )

    def test_scrape_parses_back_to_the_registry_counts(self):
        scrape, stats, obs = campaign_scrape()
        parsed = parse_prometheus(scrape)
        assert parsed[("repro_auth_finalized_total", ())] == \
            float(stats.authenticated)
        assert parsed[("repro_auth_challenges_total", ())] == \
            float(stats.attempts)
        assert parsed[("repro_auth_results_total",
                       (("result", "accepted"),))] == \
            float(obs.finalized.value() + obs.aborted.value())
