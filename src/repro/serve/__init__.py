"""Model persistence and online inference: train once, serve forever.

Everything upstream of this package produces models that die with the
process; :mod:`repro.serve` is the subsystem that makes them durable and
servable:

* :mod:`repro.serve.persist` — ``save_model`` / ``load_model``, a
  versioned npz + JSON-manifest container covering the classifiers,
  regressors, item memories, accumulators, basis sets, embeddings and
  pipelines, with bit-identical round trips (format spec in
  ``docs/SERVING.md``);
* :mod:`repro.serve.pipeline` — :class:`TrainedPipeline`, the servable
  unit (encoder specification + trained model + provenance);
* :mod:`repro.serve.engine` — :class:`InferenceEngine`, which loads a
  pipeline once and answers single/micro-batched predict calls on the
  calling thread;
* :mod:`repro.serve.online` — :class:`OnlineLearner`, incremental
  add/subtract/merge updates on a live model plus atomic checkpoints;
* :mod:`repro.serve.registry` — :class:`ModelRegistry`, named
  multi-model serving with zero-downtime hot swap (one pointer flip);
* :mod:`repro.serve.batching` — :class:`MicroBatcher`, the adaptive
  scheduler that coalesces concurrent requests into single kernel
  calls, bit-identical to sequential serving;
* :mod:`repro.serve.server` — :class:`ServeServer` /
  :class:`ServerThread`, the asyncio HTTP front end (multi-model
  routing, 429 backpressure, ``:swap`` endpoint);
* :mod:`repro.serve.prefork` — ``serve``, what ``serve-http`` runs:
  the loaded server forked into one process per CPU, each connection
  handed to one of them, ``/metrics`` summed and ``:swap`` all or
  nothing across them;
* :mod:`repro.serve.replay` — :func:`oracle_transcript`, the
  sequential ``predict_one`` answers every batched or HTTP answer must
  equal bit for bit.

The CLI surface lives one layer up: ``python -m repro.experiments train
--out model.npz``, ``… serve --model model.npz --input -`` and
``… serve-http --model name=model.npz`` (see
:mod:`repro.experiments.serving` and ``docs/SERVING.md``).
"""

from .batching import MicroBatcher
from .engine import InferenceEngine
from .online import OnlineLearner
from .persist import (
    FORMAT_MINOR,
    FORMAT_NAME,
    FORMAT_VERSION,
    describe_model,
    load_checkpoint,
    load_model,
    save_model,
)
from .pipeline import TrainedPipeline
from .registry import ModelRegistry
from .replay import TraceRequest, oracle_transcript
from .server import ServerThread, ServeServer, json_scalar

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "FORMAT_MINOR",
    "save_model",
    "load_model",
    "load_checkpoint",
    "describe_model",
    "TrainedPipeline",
    "InferenceEngine",
    "OnlineLearner",
    "ModelRegistry",
    "MicroBatcher",
    "ServeServer",
    "ServerThread",
    "json_scalar",
    "TraceRequest",
    "oracle_transcript",
]
