"""Command-line entry point: regenerate any table or figure of the paper.

Usage::

    python -m repro.experiments table1 [--dim D] [--seed S] [--workers N]
    python -m repro.experiments table2 [--dim D] [--seed S] [--workers N]
    python -m repro.experiments figure3 [--size M] [--dim D]
    python -m repro.experiments figure6 [--dim D]
    python -m repro.experiments figure7 [--dim D] [--workers N]
    python -m repro.experiments figure8 [--dim D] [--workers N] [--fast]
    python -m repro.experiments train --out model.npz [--task T] [--basis B]
    python -m repro.experiments train --out model.npz --stream \\
        [--stream-samples N] [--chunk-size C] [--checkpoint CKPT.npz] \\
        [--cluster-workers N] [--resume] \\
        [--input DATA.jsonl|DATA.csv|DATA.npy]
    python -m repro.experiments serve --model model.npz [--input -]
    python -m repro.experiments serve --model model.npz --stream \\
        [--checkpoint CKPT.npz] [--checkpoint-every N]
    python -m repro.experiments serve-http --model NAME=model.npz \\
        [--model NAME2=other.npz ...] [--host H] [--port P] \\
        [--batch-window-ms W] [--batch-max B] [--max-queue Q]

``train`` runs one paper pipeline (a JIGSAWS-like gesture task or the
Mars Express regression) and writes the trained model as a portable
``.npz`` artifact; with ``--stream`` the training set is generated and
consumed as an out-of-core chunk stream (:mod:`repro.streaming`), so
``--stream-samples`` may exceed RAM while peak memory stays
O(``--chunk-size``); ``--input`` ingests a ``.jsonl``/``.csv``/``.npy``
file instead of the synthetic generator.  ``serve`` loads such an artifact once and answers
JSONL prediction requests from stdin or a file; with ``--stream`` it
also learns incrementally from records carrying a ``"target"`` field,
checkpointing atomically (see ``docs/SERVING.md`` for the model format
and ``docs/STREAMING.md`` for the streaming protocol).

``serve-http`` is the network tier: it loads *every* ``--model
NAME=PATH`` once, then forks one copy of the server per CPU it may run
on (restrict that with ``taskset`` or a cpuset); each connection is
served start to finish by one process.  Every process serves every model
over HTTP with adaptive micro-batching (concurrent requests coalesce
into single kernel calls, bit-identical to sequential serving),
bounded-queue admission control (429 on overload) and a zero-downtime
``:swap`` endpoint that replaces a model in every process, all or
nothing — see ``docs/SERVING.md`` for the full walkthrough.

Runtime flags (see ``docs/REPRODUCING.md`` for per-artifact guidance):

``--fast``
    Shrink dimensionality (and, for figure8, the sweep resolution) for a
    quick look; defaults follow the paper (d = 10,000).
``--workers N``
    Fan independent experiment cells out over ``N`` forked processes
    (``0`` = one per CPU; Linux).  Results are bit-identical to ``--workers 1``.
    ``serve`` and ``serve-http`` reject the flag: each of their
    processes predicts on its loop thread, and ``serve-http`` already
    runs one process per CPU.  So does ``train``, whose only fan-out is
    ``--stream --cluster-workers N``.
``--no-cache``
    Bypass the artifact cache.  By default, results for table1, table2,
    figure7 and figure8 are content-addressed by their full
    configuration and cached as JSON under ``benchmarks/results/``
    (override with ``--cache-dir`` or ``REPRO_RESULTS_DIR``); re-running
    an identical command is a logged cache hit that recomputes nothing.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys

# Only what the parser needs is imported here; each target imports what
# it runs, so a `train` loads no driver, no analysis and no HTTP server.
from ..exceptions import InvalidParameterError, ModelFormatError
from ..serve.batching import DEFAULT_BATCH_MAX, DEFAULT_BATCH_WINDOW_MS, DEFAULT_MAX_QUEUE
from ..streaming.chunks import DEFAULT_CHUNK_ROWS
from ..tuning.calibration import active_calibration
from .config import BASIS_KINDS, SERVABLE_TASKS, ClassificationConfig, RegressionConfig

__all__ = ["main"]

#: Dimensionality cap applied by ``--fast``.
FAST_DIM = 1024


def _effective_dim(args: argparse.Namespace) -> int:
    return min(args.dim, FAST_DIM) if args.fast else args.dim


def _store(args: argparse.Namespace):
    from ..runtime import ArtifactStore

    return ArtifactStore(root=args.cache_dir, enabled=not args.no_cache)


def _print_table1(args: argparse.Namespace) -> None:
    from ..analysis import format_table
    from .classification import run_table1

    dim = _effective_dim(args)
    config = ClassificationConfig(dim=dim, seed=args.seed)
    results = run_table1(config, workers=args.workers, store=_store(args))
    rows = [
        [task.replace("_", " ").title()] + [f"{100 * results[task][k]:.1f}%" for k in ("random", "level", "circular")]
        for task in results
    ]
    print(format_table(
        ["Dataset", "Random", "Level", "Circular"],
        rows,
        title=f"Table 1: classification accuracy (d={dim}, r=0.1, seed={args.seed})",
    ))


def _print_table2(args: argparse.Namespace) -> None:
    from ..analysis import format_table
    from .regression import run_table2

    dim = _effective_dim(args)
    config = RegressionConfig(dim=dim, seed=args.seed)
    results = run_table2(config, workers=args.workers, store=_store(args))
    rows = [
        [ds.replace("_", " ").title()] + [results[ds][k] for k in ("random", "level", "circular")]
        for ds in results
    ]
    print(format_table(
        ["Dataset", "Random", "Level", "Circular"],
        rows,
        title=f"Table 2: regression MSE (d={dim}, r=0.01, seed={args.seed})",
        digits=1,
    ))


def _print_figure3(args: argparse.Namespace) -> None:
    import numpy as np

    from ..analysis import figure3_data, render_heatmap

    dim = _effective_dim(args)
    data = figure3_data(size=args.size, dim=dim, seed=args.seed)
    for kind, matrix in data.items():
        print(f"\nFigure 3 — {kind} basis pairwise similarity "
              f"(size={args.size}, d={dim}):")
        print(render_heatmap(matrix, vmin=0.5, vmax=1.0))
        print(np.array2string(matrix, precision=2, suppress_small=True))


def _print_figure6(args: argparse.Namespace) -> None:
    from ..analysis import figure6_data, format_table

    dim = _effective_dim(args)
    data = figure6_data(size=10, dim=dim, seed=args.seed)
    rows = [[f"r={r}"] + [float(v) for v in profile] for r, profile in data.items()]
    headers = ["profile"] + [f"node{i}" for i in range(10)]
    print(format_table(headers, rows,
                       title=f"Figure 6: similarity to reference node (d={dim})"))


def _print_figure7(args: argparse.Namespace) -> None:
    from ..analysis import format_table
    from ..learning.metrics import normalized_mse
    from .regression import run_table2

    dim = _effective_dim(args)
    config = RegressionConfig(dim=dim, seed=args.seed)
    results = run_table2(config, workers=args.workers, store=_store(args))
    rows = []
    for ds in results:
        reference = results[ds]["random"]
        rows.append([ds.replace("_", " ").title()] + [
            normalized_mse(results[ds][k], reference) for k in ("random", "level", "circular")
        ])
    print(format_table(
        ["Dataset", "Random", "Level", "Circular"],
        rows,
        title=f"Figure 7: normalized regression MSE (d={dim}, seed={args.seed})",
    ))


def _print_figure8(args: argparse.Namespace) -> None:
    from ..analysis import format_table
    from .rsweep import run_rsweep

    dim = _effective_dim(args)
    if args.fast:
        r_values = (0.0, 0.05, 0.2, 1.0)
    else:
        r_values = (0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
    c_config = ClassificationConfig(dim=dim, seed=args.seed)
    r_config = RegressionConfig(dim=dim, seed=args.seed)
    sweep = run_rsweep(
        r_values,
        classification_config=c_config,
        regression_config=r_config,
        workers=args.workers,
        store=_store(args),
    )
    headers = ["Dataset"] + [f"r={r}" for r in sweep.r_values]
    rows = [
        [ds.replace("_", " ").title()] + list(sweep.normalized_error[ds])
        for ds in sweep.normalized_error
    ]
    print(format_table(headers, rows,
                       title="Figure 8: normalized error vs r (reference: random basis)"))


def _run_train(args: argparse.Namespace) -> None:
    """Train one servable pipeline and write it as a model artifact.

    With ``--stream`` the training set is a synthetic
    :mod:`repro.streaming` source consumed chunk by chunk (O(chunk)
    peak memory; scale it with ``--stream-samples``), optionally
    dropping an atomic checkpoint every ``--checkpoint-every`` chunks.
    """
    from ..serve.persist import save_model

    if not args.out:
        raise SystemExit("train requires --out MODEL.npz")
    dim = _effective_dim(args)
    if args.task == "mars_express":
        config: ClassificationConfig | RegressionConfig = RegressionConfig(
            dim=dim, seed=args.seed
        )
    else:
        config = ClassificationConfig(dim=dim, seed=args.seed)
    if args.stream:
        from ..streaming.train import train_pipeline_stream

        pipeline, stats = train_pipeline_stream(
            args.task,
            args.basis,
            config=config,
            stream_samples=args.stream_samples,
            chunk_size=args.chunk_size,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            cluster_workers=args.cluster_workers,
            resume=args.resume,
            input_path=None if args.input in (None, "-") else args.input,
        )
    else:
        from .serving import train_pipeline

        pipeline = train_pipeline(args.task, args.basis, config=config)
        stats = None
    path = save_model(pipeline, args.out)
    meta = pipeline.metadata
    metric = (
        f"test accuracy {100 * meta['test_accuracy']:.1f}%"
        if pipeline.kind == "classification"
        else f"test MSE {meta['test_mse']:.1f}"
    )
    print(
        f"trained {pipeline.kind} pipeline: task={meta['task']} "
        f"basis={meta['basis_kind']} d={meta['dim']} seed={meta['seed']} "
        f"({meta['num_train']} train / {meta['num_test']} test, {metric})"
    )
    if stats is not None:
        print(
            f"streamed {stats.rows} rows in {stats.chunks} chunks "
            f"of <= {args.chunk_size} rows (peak memory O(chunk))"
        )
    print(f"saved model to {path} ({path.stat().st_size} bytes)")


def _parse_request(
    line: str, lineno: int, num_features: int, allow_target: bool = False
) -> tuple[list[float], float | None]:
    """One JSONL request: ``(features, target)``.

    ``target`` is ``None`` for plain prediction requests; training
    records (``{"features": [...], "target": y}``) are only accepted
    when ``allow_target`` is set (the ``serve --stream`` mode).
    """
    from ..serve.server import finite_number

    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise InvalidParameterError(f"request line {lineno} is not JSON: {exc}") from exc
    target = None
    if isinstance(payload, dict):
        if "target" in payload:
            if not allow_target:
                raise InvalidParameterError(
                    f"request line {lineno} carries a training target; "
                    "run serve with --stream to learn from targets"
                )
            target = payload["target"]
            if not finite_number(target):
                raise InvalidParameterError(
                    f"request line {lineno} target must be a finite number"
                )
        payload = payload.get("features")
    if not isinstance(payload, list):
        raise InvalidParameterError(
            f"request line {lineno} must be a JSON list or {{\"features\": [...]}}"
        )
    if len(payload) != num_features:
        raise InvalidParameterError(
            f"request line {lineno} has {len(payload)} feature(s); "
            f"this model takes {num_features}"
        )
    for v in payload:
        if not finite_number(v):
            raise InvalidParameterError(
                f"request line {lineno} must contain only finite numbers"
            )
    return payload, target


def _run_serve(args: argparse.Namespace) -> None:
    """Answer JSONL prediction requests against a saved model.

    Reads one request per line (``[f1, f2, …]`` or
    ``{"features": [...]}``) from stdin (``--input -``) or a file and
    writes one ``{"prediction": …}`` JSON object per request line, in
    order.  With the default ``--batch-size 1`` every request is
    answered as soon as it arrives (a request/response client over a
    pipe never blocks); larger values micro-batch bulk input.

    With ``--stream`` the loop also *ingests training records*:
    a line ``{"features": [...], "target": y}`` is learned into the
    live model (answered with ``{"learned": …}``) and affects every
    later prediction; ``--checkpoint PATH`` atomically snapshots the
    updated pipeline every ``--checkpoint-every`` learned records, so a
    crash never loses more than one interval of traffic.
    """
    import numpy as np

    from ..serve.engine import InferenceEngine
    from ..serve.server import json_scalar

    if not args.model:
        raise SystemExit("serve requires --model MODEL.npz")
    if len(args.model) > 1:
        raise SystemExit(
            "serve takes exactly one --model; use serve-http for multi-model serving"
        )
    model_path = args.model[0]
    if args.input == "-":
        stream = sys.stdin
    else:
        try:
            # Open the request source before paying the model-load cost,
            # so a bad path fails cleanly without loading the model.
            stream = open(args.input, encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"cannot open --input {args.input}: {exc}") from exc
    learner = None
    try:
        try:
            if args.stream:
                from ..serve import OnlineLearner, TrainedPipeline, load_model

                pipeline = load_model(model_path)
                if not isinstance(pipeline, TrainedPipeline):
                    raise InvalidParameterError(
                        f"{model_path} holds a {type(pipeline).__name__}, not a "
                        "TrainedPipeline; wrap bare models in a pipeline to serve them"
                    )
                learner = OnlineLearner(pipeline)
                engine = learner.engine
            else:
                engine = InferenceEngine.from_path(model_path)
        except (InvalidParameterError, ModelFormatError) as exc:
            raise SystemExit(f"cannot load --model {model_path}: {exc}") from exc
        mode = "stream-serving" if args.stream else "serving"
        print(
            f"{mode} {engine.kind} model from {model_path} "
            f"(d={engine.pipeline.dim}, {engine.num_features} feature(s)/record)",
            file=sys.stderr,
        )
        state = {"since_checkpoint": 0}

        def maybe_checkpoint() -> None:
            if args.checkpoint and state["since_checkpoint"] >= args.checkpoint_every:
                learner.checkpoint(args.checkpoint)
                state["since_checkpoint"] = 0

        def flush(batch: list[tuple[list[float], float | None]]) -> None:
            # Contiguous runs of the same record type are answered as one
            # micro-batch, keeping responses in request order.
            i = 0
            while i < len(batch):
                j = i
                learning = batch[i][1] is not None
                while j < len(batch) and (batch[j][1] is not None) == learning:
                    j += 1
                feats = np.asarray([rec[0] for rec in batch[i:j]], dtype=np.float64)
                if learning:
                    targets: list = [rec[1] for rec in batch[i:j]]
                    if engine.kind == "classification":
                        targets = [int(t) for t in targets]
                    learner.learn(feats, targets)
                    state["since_checkpoint"] += j - i
                    for _ in range(j - i):
                        print(
                            json.dumps(
                                {"learned": True, "num_samples": learner.num_samples}
                            ),
                            flush=True,
                        )
                    maybe_checkpoint()
                elif j - i == 1:
                    # Single-record fast path (bit-identical to the batch
                    # route); the request/response loop lives here.
                    value = engine.predict_one(feats[0])
                    print(json.dumps({"prediction": json_scalar(value)}), flush=True)
                else:
                    for value in engine.predict(feats):
                        print(json.dumps({"prediction": json_scalar(value)}), flush=True)
                i = j

        pending: list[tuple[list[float], float | None]] = []
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                features, target = _parse_request(
                    line, lineno, engine.num_features, allow_target=args.stream
                )
                if (
                    target is not None
                    and engine.kind == "classification"
                    and not float(target).is_integer()
                ):
                    raise InvalidParameterError(
                        f"request line {lineno}: classification targets must be "
                        f"integer class ids, got {target!r}"
                    )
                pending.append((features, target))
            except InvalidParameterError:
                # Answer everything already accepted before failing, so
                # the client knows exactly which requests were served.
                flush(pending)
                raise
            if len(pending) >= args.batch_size:
                flush(pending)
                pending = []
        flush(pending)
        if learner is not None and args.checkpoint and state["since_checkpoint"]:
            learner.checkpoint(args.checkpoint)
    finally:
        if stream is not sys.stdin:
            stream.close()


def _run_serve_http(args: argparse.Namespace) -> None:
    """Serve every ``--model NAME=PATH`` over HTTP with micro-batching.

    Loads every model once, then serves from one process per CPU this
    process may run on (:func:`repro.serve.prefork.serve`), prints the
    bound address once every process is ready (``--port 0`` picks an
    ephemeral port — scripts parse the printed line), and serves until
    interrupted.  Concurrent requests to the same model coalesce into
    single kernel calls (bit-identical to sequential serving); ``POST
    /v1/models/NAME:swap`` hot-swaps a model in every process, all or
    nothing.
    """
    from ..serve import ModelRegistry, prefork

    if not args.model:
        raise SystemExit("serve-http requires at least one --model NAME=MODEL.npz")
    registry = ModelRegistry()
    try:
        for spec in args.model:
            name, sep, path = spec.partition("=")
            if not sep or not name or not path:
                raise SystemExit(
                    f"--model must be NAME=MODEL.npz for serve-http, got {spec!r}"
                )
            try:
                registry.register(name, path)
            except (InvalidParameterError, ModelFormatError) as exc:
                raise SystemExit(f"cannot load --model {spec}: {exc}") from exc
            engine = registry.engine(name)
            print(
                f"loaded {name}: {engine.kind} model from {path} "
                f"(d={engine.pipeline.dim}, {engine.num_features} feature(s)/record)",
                file=sys.stderr,
            )
        prefork.serve(
            registry,
            host=args.host,
            port=args.port,
            window_ms=args.batch_window_ms,
            max_batch=args.batch_max,
            max_queue=args.max_queue,
        )
    finally:
        registry.close()


_TARGETS = {
    "table1": _print_table1,
    "table2": _print_table2,
    "figure3": _print_figure3,
    "figure6": _print_figure6,
    "figure7": _print_figure7,
    "figure8": _print_figure8,
    "train": _run_train,
    "serve": _run_serve,
    "serve-http": _run_serve_http,
}


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns a process exit code.

    Example
    -------
    >>> import contextlib, io
    >>> buf = io.StringIO()
    >>> with contextlib.redirect_stdout(buf):
    ...     code = main(["figure6", "--dim", "128", "--seed", "1"])
    >>> code
    0
    >>> "Figure 6" in buf.getvalue()
    True
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("target", choices=sorted(_TARGETS))
    parser.add_argument("--dim", type=int, default=10_000, help="hyperspace dimension")
    parser.add_argument("--seed", type=int, default=2023, help="master seed")
    parser.add_argument("--size", type=int, default=10, help="basis size (figure3)")
    parser.add_argument("--fast", action="store_true",
                        help=f"smaller, quicker run (dim capped at {FAST_DIM})")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel experiment cells (0 = one per CPU; "
                             "default: 1); results are bit-identical for any "
                             "value; not accepted by train/serve/serve-http")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute even if a cached result exists, and do not cache")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: benchmarks/results, "
                             "or $REPRO_RESULTS_DIR)")
    serving = parser.add_argument_group("model serving (train / serve targets)")
    serving.add_argument("--task", choices=sorted(SERVABLE_TASKS), default="suturing",
                         help="pipeline to train: a gesture task (classification) "
                              "or mars_express (regression)")
    serving.add_argument("--basis", choices=BASIS_KINDS, default="circular",
                         help="value basis for the trained pipeline")
    serving.add_argument("--out", default=None, metavar="PATH",
                         help="where `train` writes the model artifact "
                              "(required)")
    serving.add_argument("--model", action="append", default=None,
                         metavar="MODEL.npz",
                         help="model artifact `serve` loads (required); for "
                              "`serve-http` repeatable NAME=MODEL.npz pairs — "
                              "every process serves every named model")
    serving.add_argument("--input", default="-",
                         help="JSONL request source for `serve` (a path, or - "
                              "for stdin); for `train --stream`, a .jsonl, "
                              ".csv or .npy training file ingested instead of "
                              "the synthetic stream (targets for .npy ride in "
                              "a sibling <stem>.targets.npy; for .csv in the "
                              "column named 'target')")
    serving.add_argument("--batch-size", type=int, default=1,
                         help="records per serve micro-batch. The default (1) "
                              "answers every request as it arrives — safe for "
                              "interactive request/response clients; raise it "
                              "for bulk piped input (responses stay in request "
                              "order either way)")
    streaming = parser.add_argument_group("streaming (train --stream / serve --stream)")
    streaming.add_argument("--stream", action="store_true",
                           help="train: consume the training set as an "
                                "out-of-core chunk stream (O(chunk) memory); "
                                "serve: also learn from JSONL records that "
                                "carry a \"target\" field")
    streaming.add_argument("--stream-samples", type=int, default=None,
                           help="total training rows `train --stream` generates "
                                "(default: the generator's paper-scale size); "
                                "may exceed RAM — memory stays O(--chunk-size)")
    streaming.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_ROWS,
                           help="rows per streamed chunk — the memory knob of "
                                f"--stream (default: {DEFAULT_CHUNK_ROWS}; "
                                "results are bit-identical for any value)")
    streaming.add_argument("--checkpoint", default=None, metavar="CKPT.npz",
                           help="atomic checkpoint file updated while "
                                "streaming (train: every --checkpoint-every "
                                "chunks; serve: every --checkpoint-every "
                                "learned records)")
    streaming.add_argument("--checkpoint-every", type=int, default=8,
                           help="checkpoint interval for --checkpoint "
                                "(default: 8)")
    streaming.add_argument("--cluster-workers", type=int, default=1,
                           help="worker *processes* for distributed `train "
                                "--stream` ingest (default: 1 = in-process); "
                                "the final model is bit-identical for any "
                                "value")
    streaming.add_argument("--resume", action="store_true",
                           help="reload --checkpoint (with its resume cursor) "
                                "and stream only the remaining chunks; the "
                                "finished model equals an uninterrupted run "
                                "byte for byte")
    http = parser.add_argument_group("HTTP serving (serve-http target)")
    http.add_argument("--host", default="127.0.0.1",
                      help="bind address for serve-http (default: 127.0.0.1)")
    http.add_argument("--port", type=int, default=8094,
                      help="bind port for serve-http; 0 picks an ephemeral "
                           "port and prints it (default: 8094)")
    http.add_argument("--batch-window-ms", type=float, default=DEFAULT_BATCH_WINDOW_MS,
                      help="micro-batch coalescing window in ms, finite and "
                           f">= 0 (default: {DEFAULT_BATCH_WINDOW_MS}); "
                           "answers are bit-identical for any value")
    http.add_argument("--batch-max", type=int, default=DEFAULT_BATCH_MAX,
                      help="max rows coalesced into one kernel call "
                           f"(default: {DEFAULT_BATCH_MAX}); 1 disables "
                           "coalescing")
    http.add_argument("--max-queue", type=int, default=DEFAULT_MAX_QUEUE,
                      help="max in-flight rows per model before 429 "
                           f"backpressure (default: {DEFAULT_MAX_QUEUE})")
    args = parser.parse_args(argv)
    active_calibration()
    if args.workers < 0:
        parser.error(f"--workers must be >= 0 (0 = one per CPU), got {args.workers}")
    if args.workers != 1 and args.target in ("serve", "serve-http"):
        parser.error(
            f"--workers has no effect on {args.target}: each process predicts on one thread"
        )
    if args.workers != 1 and args.target == "train":
        parser.error("--workers has no effect on train: use --stream --cluster-workers N")
    if args.batch_size < 1:
        parser.error(f"--batch-size must be positive, got {args.batch_size}")
    if args.chunk_size < 1:
        parser.error(f"--chunk-size must be positive, got {args.chunk_size}")
    if args.checkpoint_every < 1:
        parser.error(f"--checkpoint-every must be positive, got {args.checkpoint_every}")
    if args.cluster_workers < 1:
        parser.error(
            f"--cluster-workers must be positive, got {args.cluster_workers}"
        )
    if args.cluster_workers != 1 and not args.stream:
        parser.error("--cluster-workers requires --stream")
    if args.resume and not (args.stream and args.checkpoint):
        parser.error("--resume requires --stream and --checkpoint")
    if args.port < 0:
        parser.error(f"--port must be >= 0, got {args.port}")
    if not math.isfinite(args.batch_window_ms) or args.batch_window_ms < 0:
        parser.error(f"--batch-window-ms must be finite and >= 0, got {args.batch_window_ms}")
    if args.batch_max < 1:
        parser.error(f"--batch-max must be positive, got {args.batch_max}")
    if args.max_queue < 1:
        parser.error(f"--max-queue must be positive, got {args.max_queue}")
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="[%(name)s] %(message)s"
    )
    _TARGETS[args.target](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
