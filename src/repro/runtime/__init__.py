"""repro.runtime — the crash-safe execution layer.

The pieces that make long ``generate``/``analyze`` jobs survivable:

* :mod:`repro.runtime.atomic` — temp-file + fsync + rename writes, so no
  artifact is ever observed half-written;
* :mod:`repro.runtime.checkpoint` — the append-only, fsynced journal of
  committed steps that ``--resume`` replays;
* :mod:`repro.runtime.generate` — day-segmented, checkpointed corpus
  generation (byte-identical after a mid-run kill + resume);
* :mod:`repro.runtime.fork` — the one way the package forks a worker:
  workers die with their parent and hold no sibling's pipe open;
* :mod:`repro.runtime.retry` — the retry classification and the bounded,
  jittered backoff the analysis scheduler
  (:mod:`repro.parallel.scheduler`) applies to transient failures.

:mod:`repro.runtime.chaos` provides the environment-driven kill/hang
hooks the chaos tests (and the CI chaos job) drive.

The corpus-facing :mod:`~repro.runtime.generate` is loaded lazily via
PEP 562 so that low-level modules (``repro.corpus.*``) can import
:mod:`repro.runtime.atomic` without creating an import cycle.
"""

from repro.runtime.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    atomic_writer,
    fsync_dir,
    remove_stale_tmp,
)
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.retry import RetryPolicy, is_retryable_exception

#: names resolved lazily: attribute -> (module, attribute)
_LAZY = {
    "GenerateReport": ("repro.runtime.generate", "GenerateReport"),
    "JOURNAL_FILE": ("repro.runtime.generate", "JOURNAL_FILE"),
    "SEGMENT_DIR": ("repro.runtime.generate", "SEGMENT_DIR"),
    "checkpointed_generate": ("repro.runtime.generate",
                              "checkpointed_generate"),
}

__all__ = [
    "CheckpointJournal",
    "GenerateReport",
    "JOURNAL_FILE",
    "RetryPolicy",
    "SEGMENT_DIR",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "checkpointed_generate",
    "fsync_dir",
    "is_retryable_exception",
    "remove_stale_tmp",
]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
