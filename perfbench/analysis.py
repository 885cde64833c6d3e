"""Per-layer metrics from recorded spans.

A span is ``[id, name, start, end, parent, tag]`` as written by
:mod:`tracing`.  Self time is a span minus what its children cover
(:func:`stats.self_time`).  Serving spans are tied to the client's
requests through the value hash of the feature row each carries:

* a ``MicroBatcher.submit`` span belongs to the request that carried its
  row and whose send..receive interval contains it;
* the ``predict_coalesced`` span that answered a submit is the one whose
  rows include the submit's row and which lies inside the submit.

Each request's latency then splits exactly into front-end self time
(latency minus its submits), batching wait (its submits minus the
coalesced predicts that answered them) and the self times of every span
under those predicts, weighted by the share of each predict that falls
inside the request.  ``trace.layer_sum_frac`` is that sum over the
measured latency; requests whose spans cannot be found lower it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from stats import clip, merge, percentile, self_time, union_length

#: Quantiles reported for per-call layer timings (p90 keeps ten samples
#: beyond it from 100 calls, which every layer reaches on its workload).
LAYER_QUANTILES = (("p50", 0.50), ("p90", 0.90))

SUBMIT = "serve.batching.submit"
COALESCED = "serve.engine.predict_coalesced"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    tag: object

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start, self.end)

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spans(rows: list[list]) -> list[Span]:
    return [Span(*row) for row in rows]


class Tree:
    """Parent/child index over spans, with self times."""

    def __init__(self, spans: list[Span]) -> None:
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent >= 0:
                self.children[s.parent].append(s)
        self.self_s = {
            s.id: self_time(s.interval, [c.interval for c in self.children[s.id]])
            for s in spans
        }

    def subtree(self, root: Span) -> list[Span]:
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children[s.id])
        return out


def timing_metrics(prefix: str, seconds: list[float], out: dict) -> None:
    """``prefix.p50``/``prefix.p90`` in ms; zero when the layer never ran."""
    for label, q in LAYER_QUANTILES:
        value = percentile([v * 1e3 for v in seconds], q) if seconds else 0.0
        out[f"{prefix}.{label}"] = (value, "ms", len(seconds))


def overlap(interval: tuple[float, float], merged: list[tuple[float, float]]) -> float:
    return sum(union_length([clip(interval, m)]) for m in merged)


@dataclass
class Request:
    """One client request as the analysis needs it."""

    send: float
    recv: float
    keys: list


def serving_layers(spans: list[Span], requests: list[Request]) -> dict:
    """Per-layer serving metrics over ``requests`` (the measured window)."""
    if not requests:
        raise ValueError("no requests to attribute spans to")
    lo = min(r.send for r in requests)
    hi = max(r.recv for r in requests)
    spans = [s for s in spans if s.start >= lo and s.end <= hi]
    tree = Tree(spans)

    owners: dict[object, list[int]] = defaultdict(list)
    for i, req in enumerate(requests):
        for d in req.keys:
            owners[d].append(i)
    answering: dict[object, list[Span]] = defaultdict(list)
    coalesced = [s for s in spans if s.name == COALESCED]
    for pc in coalesced:
        for d in pc.tag:
            answering[d].append(pc)

    submits_of: dict[int, list[Span]] = defaultdict(list)
    answer_of: dict[int, Span] = {}
    for s in (s for s in spans if s.name == SUBMIT):
        owner = next(
            (i for i in owners.get(s.tag, ())
             if requests[i].send <= s.start and s.end <= requests[i].recv),
            None,
        )
        if owner is None:
            continue
        submits_of[owner].append(s)
        pc = next(
            (p for p in answering.get(s.tag, ()) if s.start <= p.start and p.end <= s.end),
            None,
        )
        if pc is not None:
            answer_of[s.id] = pc

    server_self, waits = [], []
    layer_sum = latency_sum = 0.0
    for i, req in enumerate(requests):
        latency = req.recv - req.send
        latency_sum += latency
        subs = submits_of.get(i, [])
        if not subs:
            continue
        covered = merge([s.interval for s in subs])
        front = latency - sum(b - a for a, b in covered)
        server_self.append(front)
        for s in subs:
            pc = answer_of.get(s.id)
            waits.append(s.duration - (overlap(pc.interval, [s.interval]) if pc else 0.0))
        pcs = {answer_of[s.id].id: answer_of[s.id] for s in subs if s.id in answer_of}
        in_pcs = union_length(clip(p.interval, c) for p in pcs.values() for c in covered)
        attributed = front + (sum(b - a for a, b in covered) - in_pcs)
        for pc in pcs.values():
            share = overlap(pc.interval, covered) / pc.duration if pc.duration > 0 else 0.0
            attributed += share * sum(tree.self_s[s.id] for s in tree.subtree(pc))
        layer_sum += attributed

    under = [s for pc in coalesced for s in tree.subtree(pc)]

    def calls(name: str) -> list[Span]:
        return [s for s in under if s.name == name]

    out: dict = {}
    timing_metrics("serve.server.self_ms", server_self, out)
    timing_metrics("serve.batching.wait_ms", waits, out)
    busy = sum(pc.duration for pc in coalesced)
    out["serve.engine.busy_s"] = (busy, "s", len(coalesced))
    timing_metrics("serve.engine.self_ms", [tree.self_s[pc.id] for pc in coalesced], out)
    encode = calls("runtime.batch.encode")
    timing_metrics("runtime.batch.encode_ms", [s.duration for s in encode], out)
    out["runtime.batch.encode_share"] = (
        sum(s.duration for s in encode) / busy if busy > 0 else 0.0, "frac", len(encode))
    for metric, name in (
        ("runtime.batch.indices_s", "runtime.batch.indices"),
        ("runtime.batch.chunk_counts_s", "runtime.batch.chunk_counts"),
        ("hdc.ops.majority_s", "hdc.ops.majority_from_counts"),
    ):
        spans_of = calls(name)
        out[metric] = (sum(s.duration for s in spans_of), "s", len(spans_of))
    timing_metrics("basis.embedding.encode_packed_ms",
                   [s.duration for s in calls("basis.embedding.encode_packed")], out)
    timing_metrics("learning.classifier.predict_ms",
                   [s.duration for s in calls("learning.classifier.predict")], out)
    timing_metrics("learning.regression.predict_ms",
                   [s.duration for s in calls("learning.regression.predict")], out)
    hamming = calls("hdc.kernels.pairwise_hamming")
    timing_metrics("hdc.kernels.hamming_ms", [s.duration for s in hamming], out)
    out["hdc.kernels.calls"] = (float(len(hamming)), "count", len(hamming))
    out["trace.layer_sum_frac"] = (layer_sum / latency_sum, "frac", len(requests))
    out["trace.requests_matched_frac"] = (len(submits_of) / len(requests), "frac", len(requests))
    return out


ROOT = "bench.train"


def training_layers(runs: list[list[Span]]) -> dict:
    """Per-layer metrics over several traced trainings (one span list each).

    Per-call timings pool every training's calls; totals are the median
    per training, so a run that fits in one more training reads the same.
    """
    from statistics import median

    pulls, chunk, totals = [], [], defaultdict(list)
    fused = calls = 0
    layer_fracs = []
    for spans in runs:
        tree = Tree(spans)
        root = next(s for s in spans if s.name == ROOT)
        main = [s for s in tree.subtree(root) if s.id != root.id]
        pulls += [s.duration for s in spans if s.name == "streaming.files.pull"]
        ingest = [s for s in main if s.name == "hdc.ingest.ingest_chunk"]
        chunk += [s.duration for s in ingest]
        fused += sum(1 for s in ingest if s.tag)
        calls += len(ingest)
        for metric, name in (
            ("streaming.reduce.prefetch_wait_s", "streaming.reduce.prefetch_wait"),
            ("hdc.ingest.busy_s", "hdc.ingest.ingest_chunk"),
            ("learning.classifier.partial_fit_s", "learning.classifier.partial_fit"),
            ("serve.persist.save_s", "serve.persist.save_model"),
            ("streaming.train.score_s", "streaming.train.stream_score_classifier"),
        ):
            totals[metric].append(sum(s.duration for s in main if s.name == name))
        totals["serve.persist.saves"].append(
            float(sum(1 for s in main if s.name == "serve.persist.save_model")))
        layer_fracs.append(sum(tree.self_s[s.id] for s in main) / root.duration)
    out: dict = {}
    timing_metrics("streaming.files.chunk_ms", pulls, out)
    timing_metrics("hdc.ingest.chunk_ms", chunk, out)
    out["hdc.ingest.fused_frac"] = (fused / calls if calls else 0.0, "frac", calls)
    for metric, values in totals.items():
        unit = "count" if metric.endswith("saves") else "s"
        out[metric] = (median(values), unit, len(values))
    out["trace.layer_sum_frac"] = (median(layer_fracs), "frac", len(layer_fracs))
    out["trace.requests_matched_frac"] = (1.0, "frac", len(runs))
    return out
