"""Built-in values of the serving tier's batching knobs.

:class:`~repro.serve.batching.MicroBatcher`, the HTTP servers and the
``serve-http`` flags default to these.  They live apart from the
scheduler so the CLI parser can print them without importing asyncio.
"""

from __future__ import annotations

__all__ = ["DEFAULT_BATCH_WINDOW_MS", "DEFAULT_BATCH_MAX", "DEFAULT_MAX_QUEUE"]

#: Built-in batch window: how long a non-full batch may wait for more
#: concurrent traffic, in milliseconds.
DEFAULT_BATCH_WINDOW_MS = 2.0

#: Built-in cap on coalesced batch size.
DEFAULT_BATCH_MAX = 32

#: Built-in bound on admitted-but-unanswered rows per model; a request
#: that would pass it fails with backpressure.
DEFAULT_MAX_QUEUE = 256
