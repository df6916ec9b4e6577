"""Columnar analysis engine: numpy-vectorized twins of the hottest
analyses over in-memory struct-of-arrays views of both corpus planes.

Public surface:

* :func:`repro.columnar.pipeline.build_pipeline` — the one pipeline
  constructor ``analyze``, :meth:`repro.api.Study.analyze` and the
  streaming engine call;
* :class:`repro.columnar.pipeline.ColumnarPipeline` — the vectorized
  pipeline (bit-equal results, enforced by ``tests/columnar``).
"""

from repro.columnar.pipeline import ColumnarPipeline, build_pipeline

__all__ = ["build_pipeline", "ColumnarPipeline"]
