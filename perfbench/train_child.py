"""One training run of the train_file workload, in its own process.

Usage::

    python perfbench/train_child.py RESULT.json DATA.npy OUT.npz CKPT.npz SEED INGEST [SPANS.json]

Calls ``train_pipeline_stream("suturing", "circular", ...)`` on
``DATA.npy`` (the engine behind ``train --stream --input``), then saves
the final model to ``OUT.npz``.  The public ``on_chunk`` hook stamps
every absorbed chunk.  ``RESULT.json`` receives those stamps, the
moment the final model is on disk, this process's peak resident memory
and the held-out accuracy.  With ``SPANS.json`` the layer wrappers are
installed first and the spans are written there.
"""

from __future__ import annotations

import json
import resource
import sys
import time

now = time.monotonic


def main(argv: list[str]) -> int:
    result_path, data, out, checkpoint, seed, ingest = argv[:6]
    spans_path = argv[6] if len(argv) > 6 else None
    rec = None
    if spans_path is not None:
        from tracing import Recorder, install_training

        rec = Recorder()
        install_training(rec)
    from repro.experiments.config import ClassificationConfig
    from repro.serve import persist
    from repro.streaming.train import train_pipeline_stream
    from repro.tuning.calibration import active_calibration

    from workloads import CHECKPOINT_EVERY, CHUNK_SIZE, DIM, STREAM_SAMPLES

    if active_calibration() is not None:
        raise SystemExit("a calibration artifact is active; the benchmark needs built-in knobs")
    absorbed: list[tuple[float, int]] = []

    def on_chunk(stats) -> None:
        absorbed.append((now(), stats.rows))

    def run():
        pipeline, stats = train_pipeline_stream(
            "suturing",
            "circular",
            config=ClassificationConfig(dim=DIM, seed=int(seed)),
            input_path=data,
            chunk_size=CHUNK_SIZE,
            checkpoint=checkpoint,
            checkpoint_every=CHECKPOINT_EVERY,
            stream_samples=STREAM_SAMPLES,
            on_chunk=on_chunk,
            ingest=ingest,
        )
        persist.save_model(pipeline, out)
        return pipeline, stats

    if rec is not None:
        run = rec.wrap("bench.train", run)
    pipeline, stats = run()
    saved = now()
    result = {
        "absorbed": absorbed,
        "saved": saved,
        "rows": stats.rows,
        "test_accuracy": pipeline.metadata["test_accuracy"],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if rec is not None:
        rec.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
