"""Parallel execution: the analysis executor, caching, equivalence.

* :mod:`repro.parallel.scheduler` — the one analysis executor behind
  ``run_all``: in-process, one supervised forked slot, or a pool of
  ``--jobs N`` forked workers, with per-attempt timeouts, bounded
  retries and journaled terminal outcomes (:class:`SupervisorPolicy`),
* :mod:`repro.parallel.cache` — a content-addressed result cache keyed
  on (corpus digest, config hash, analysis name),
* :mod:`repro.parallel.golden` — canonical value fingerprints proving a
  parallel run byte-equivalent to the serial reference path.
"""

from repro.parallel.cache import ResultCache, corpus_digest
from repro.parallel.golden import FINGERPRINT_VERSION, value_fingerprint
from repro.parallel.scheduler import (
    SupervisorPolicy,
    resolve_jobs,
    run_parallel,
    schedule_order,
)

__all__ = [
    "FINGERPRINT_VERSION",
    "ResultCache",
    "SupervisorPolicy",
    "corpus_digest",
    "resolve_jobs",
    "run_parallel",
    "schedule_order",
    "value_fingerprint",
]
