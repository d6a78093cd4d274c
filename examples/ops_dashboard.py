"""Streamlit ops dashboard for the repro.obs observability plane.

Two modes, picked from the sidebar:

* **Live tail** — scrape a running ``AuthServer`` (or any replica of a
  ``ReplicaGroup``) through the wire ``metrics`` / ``trace`` admin
  verbs (wire 1.2), and chart the auth counters, failure taxonomy,
  latency histogram, and the recent round spans.  Point it at the demo
  server from ``examples/serve_fleet.py``, or tick "demo fleet" to
  spin up an in-process instrumented server to watch.
* **Replay** — load a ``BENCH_*.json`` record that a local benchmark
  run wrote into the repository root and browse it as a table (the
  benchmark lanes all write flat sorted JSON).  The records are build
  output, not tracked files; CHANGES.md holds the recorded numbers, in
  the entry of the change that measured them.

Run:   streamlit run examples/ops_dashboard.py

Streamlit is an optional dependency — this module degrades to a clear
message (and still imports cleanly, so the examples lint lane stays
green) when it is not installed.
"""

import asyncio
import json
import pathlib
import sys

try:
    import streamlit as st
except ImportError:          # pragma: no cover - exercised without streamlit
    st = None

REPO = pathlib.Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.obs import parse_prometheus  # noqa: E402


def scrape_endpoint(host: str, port: int):
    """One-shot wire scrape: (parsed samples, raw text, spans)."""
    from repro.service.net import AuthClient

    async def main():
        async with AuthClient.connect(host, port,
                                      peer="ops-dashboard") as client:
            text = await client.metrics()
            spans = await client.trace()
        return text, spans

    text, spans = asyncio.run(main())
    return parse_prometheus(text), text, spans


def demo_server():
    """An in-process instrumented server the dashboard can watch."""
    from repro.obs import MetricsRegistry, RoundTracer, instrument_server, \
        instrument_service
    from repro.service import AuthService, FleetConfig
    from repro.service.net import AuthServer

    async def main():
        service = AuthService.provision(FleetConfig(
            n_devices=16, seed=7,
            puf=dict(challenge_bits=32, n_stages=4, response_bits=16)))
        registry = MetricsRegistry()
        instrument_service(service, registry,
                           tracer=RoundTracer(capacity=256))
        async with AuthServer(service) as server:
            instrument_server(server, registry)
            from repro.service.net import AuthClient
            async with AuthClient.connect(
                    "127.0.0.1", server.port) as client:
                await client.authenticate_batch(service.device_list)
                text = await client.metrics()
                spans = await client.trace()
        service.close()
        return text, spans

    text, spans = asyncio.run(main())
    return parse_prometheus(text), text, spans


def counter_table(samples):
    """Flatten parsed samples into rows for a dataframe-less table."""
    rows = []
    for (name, labels), value in sorted(samples.items()):
        label_text = ", ".join(f"{k}={v}" for k, v in labels)
        rows.append({"metric": name, "labels": label_text, "value": value})
    return rows


def latency_series(samples, metric="repro_service_round_latency_seconds"):
    """Cumulative bucket counts -> per-bucket counts for a bar chart."""
    buckets = {}
    for (name, labels), value in samples.items():
        if name != f"{metric}_bucket":
            continue
        le = dict(labels).get("le", "+Inf")
        buckets[le] = buckets.get(le, 0.0) + value
    ordered = sorted(
        buckets.items(),
        key=lambda kv: float("inf") if kv[0] == "+Inf" else float(kv[0]))
    series, previous = [], 0.0
    for le, cumulative in ordered:
        series.append({"le": le, "count": cumulative - previous})
        previous = cumulative
    return series


def render_dashboard():
    st.set_page_config(page_title="repro.obs ops dashboard", layout="wide")
    st.title("repro.obs — fleet observability")
    mode = st.sidebar.radio("Mode", ["Live tail", "Replay BENCH_*.json"])

    if mode == "Live tail":
        use_demo = st.sidebar.checkbox("demo fleet (in-process)", True)
        if use_demo:
            samples, text, spans = demo_server()
        else:
            host = st.sidebar.text_input("host", "127.0.0.1")
            port = int(st.sidebar.number_input("port", value=7900))
            try:
                samples, text, spans = scrape_endpoint(host, port)
            except Exception as error:
                st.error(f"scrape failed: {error}")
                return

        accepted = samples.get(
            ("repro_auth_results_total", (("result", "accepted"),)), 0.0)
        finalized = samples.get(("repro_auth_finalized_total", ()), 0.0)
        aborted = samples.get(("repro_auth_aborted_total", ()), 0.0)
        left, middle, right = st.columns(3)
        left.metric("accepted", int(accepted))
        middle.metric("finalized", int(finalized))
        right.metric("aborted", int(aborted))

        failures = {dict(labels)["result"]: value
                    for (name, labels), value in samples.items()
                    if name == "repro_auth_results_total"
                    and dict(labels)["result"] != "accepted"}
        if failures:
            st.subheader("failure taxonomy")
            st.bar_chart(failures)

        latency = latency_series(samples)
        if latency:
            st.subheader("round latency (per-bucket counts)")
            st.bar_chart({row["le"]: row["count"] for row in latency})

        st.subheader("all series")
        st.table(counter_table(samples))

        st.subheader(f"recent round spans ({len(spans)})")
        st.json(spans[-16:])

        with st.expander("raw Prometheus scrape"):
            st.code(text, language="text")
    else:
        records = sorted(REPO.glob("BENCH_*.json"))
        if not records:
            st.warning("no BENCH_*.json records in the repository root "
                       "(run a benchmark lane first)")
            return
        choice = st.sidebar.selectbox(
            "record", records, format_func=lambda p: p.name)
        payload = json.loads(choice.read_text())
        st.subheader(choice.name)
        flat = {key: value for key, value in payload.items()
                if not isinstance(value, (dict, list))}
        st.table([{"key": key, "value": value}
                  for key, value in sorted(flat.items())])
        with st.expander("full record"):
            st.json(payload)


def main():
    if st is None:
        print("examples/ops_dashboard.py needs streamlit, which is not "
              "installed in this environment.\n"
              "Install it with `pip install streamlit`, then run:\n"
              "    streamlit run examples/ops_dashboard.py\n\n"
              "The wire scrape itself needs no extra dependencies — "
              "this works anywhere:\n"
              "    client = await AuthClient.connect(host, port)\n"
              "    print(await client.metrics())")
        return 1
    render_dashboard()
    return 0


if st is not None:          # running under `streamlit run`
    render_dashboard()
elif __name__ == "__main__":
    sys.exit(main())
