"""The benchmark's own rules: percentiles, self time, due-time latency,
the max-rate search and metric names."""

import asyncio
import math

import pytest

import analysis
import loadgen
import run
import stats


# -- percentile rule -----------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.90) == 90


def test_percentile_refuses_without_ten_samples_beyond():
    with pytest.raises(stats.RefusedPercentile):
        stats.percentile(list(range(999)), 0.99)  # rank 990 leaves 9 beyond
    assert stats.percentile(list(range(1000)), 0.99) == 989  # leaves exactly 10


def test_weighted_percentile_counts_each_weight():
    # 3 chunks of 1000 rows: p99 over rows is the slowest chunk's latency.
    assert stats.percentile([5.0, 1.0, 9.0], 0.99, weights=[1000, 1000, 1000]) == 9.0
    assert stats.percentile([5.0, 1.0, 9.0], 0.50, weights=[1000, 1000, 1000]) == 5.0


# -- span self time ------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    assert stats.self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # (1, 4) and (3, 6) overlap on (3, 4): together they cover 5, not 6.
    assert stats.self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_span():
    assert stats.self_time((2.0, 4.0), [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)


def _hundred_requests():
    """100 identical traced requests (p90 needs ten samples beyond it), 20 s apart."""
    rows, requests = [], []
    for k in range(100):
        t, d = 20.0 * k, f"row{k}"
        rows += [
            [5 * k + 1, analysis.SUBMIT, t + 1.0, t + 9.0, -1, d],
            [5 * k + 2, analysis.COALESCED, t + 3.0, t + 8.0, -1, [d]],
            [5 * k + 3, "runtime.batch.encode", t + 3.5, t + 5.5, 5 * k + 2, None],
            [5 * k + 4, "runtime.batch.indices", t + 3.5, t + 4.0, 5 * k + 3, None],
            [5 * k + 5, "learning.classifier.predict", t + 6.0, t + 7.5, 5 * k + 2, None],
        ]
        requests.append(analysis.Request(t, t + 10.0, [d]))
    return analysis.load_spans(rows), requests


def test_serving_layers_split_a_request_exactly():
    out = analysis.serving_layers(*_hundred_requests())
    assert out["serve.server.self_ms.p50"][0] == pytest.approx(2.0 * 1e3)  # 10 - 8
    assert out["serve.batching.wait_ms.p90"][0] == pytest.approx(3.0 * 1e3)  # 8 - 5
    assert out["serve.engine.self_ms.p50"][0] == pytest.approx(1.5 * 1e3)  # 5 - 2 - 1.5
    assert out["runtime.batch.encode_share"][0] == pytest.approx(2.0 / 5.0)
    assert out["trace.layer_sum_frac"][0] == pytest.approx(1.0)
    assert out["trace.requests_matched_frac"][0] == 1.0


# -- due-time latency against a stalled server ---------------------------------
async def _stalling_server(stall_on: int, stall_s: float):
    seen = []

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                await reader.readexactly(length)
                seen.append(len(seen))
                if len(seen) - 1 == stall_on:
                    await asyncio.sleep(stall_s)
                body = b'{"prediction": 1}'
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    async def scenario():
        server = await _stalling_server(stall_on=2, stall_s=0.2)
        port = server.sockets[0].getsockname()[1]
        conns = await loadgen.open_connections("127.0.0.1", port, 1)
        wire = loadgen.build_request("127.0.0.1", "m", {"features": [1.0]})
        dues = [0.02 * i for i in range(8)]
        try:
            return await loadgen.open_loop(conns, [wire] * len(dues), dues, [0] * len(dues))
        finally:
            await loadgen.close_connections(conns)
            server.close()
            await server.wait_closed()

    out = asyncio.run(scenario())
    assert all(out.ok(i) for i in range(8))
    from_due = [r - d for r, d in zip(out.recv, out.due)]
    from_send = [r - s for r, s in zip(out.recv, out.send)]
    # Request 3 fell due 20 ms into the stall: it waited for the connection,
    # so its latency from due time carries the stall, from send time not.
    assert from_due[3] > 0.15
    assert from_send[3] < 0.05
    assert out.conn_wait[3] > 0.1
    assert all(lag < 0.01 for lag in out.lag)


# -- max_rps search ------------------------------------------------------------
def test_search_max_rate_finds_the_knee_of_a_latency_curve():
    def p99_ms(rate):  # an M/M/1-like curve with capacity 450 req/s
        return math.inf if rate >= 450 else 2300.0 / (450 - rate)

    probes = []

    def probe(rate):
        probes.append(rate)
        return p99_ms(rate) <= 50.0

    found = loadgen.search_max_rate(probe, base=150.0, top_factor=4.0, steps=6)
    limit = 450 - 46.0  # where the curve crosses 50 ms: 404 req/s
    assert found <= limit
    assert found >= limit / 4.0 ** (1 / 2**6)
    assert len(probes) == 6


# -- metric names --------------------------------------------------------------
@pytest.mark.parametrize("name", ["p50_ms", "serve.server.self_ms.p50", "hdc.kernels.calls", "0x-1"])
def test_valid_metric_names(name):
    assert stats.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "slash/no", "x" * 65, "é"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        stats.check_name(name)


def test_benchmark_json_names_and_units_are_valid():
    for metric in run.SPEC["end_to_end"] + run.SPEC["per_layer"]:
        stats.check_name(metric["name"])
        stats.check_unit(metric["unit"])
    assert "setup_s" in run.END_TO_END


def test_every_layer_metric_the_analysis_reports_is_declared():
    spans = analysis.load_spans([[1, analysis.ROOT, 0.0, 1.0, -1, None]])
    produced = set(analysis.training_layers([spans]))
    assert produced <= set(run.PER_LAYER)
    produced = set(analysis.serving_layers(*_hundred_requests()))
    assert produced <= set(run.PER_LAYER)
