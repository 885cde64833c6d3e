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

from .. import _lazy

_EXPORTS = {
    "FORMAT_NAME": "persist",
    "FORMAT_VERSION": "persist",
    "FORMAT_MINOR": "persist",
    "save_model": "persist",
    "load_model": "persist",
    "load_checkpoint": "persist",
    "describe_model": "persist",
    "TrainedPipeline": "pipeline",
    "InferenceEngine": "engine",
    "OnlineLearner": "online",
    "ModelRegistry": "registry",
    "MicroBatcher": "batching",
    "ServeServer": "server",
    "ServerThread": "server",
    "json_scalar": "server",
    "TraceRequest": "replay",
    "oracle_transcript": "replay",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
