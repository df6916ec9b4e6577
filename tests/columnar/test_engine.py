"""``build_pipeline``: the one pipeline constructor builds the columnar
pipeline over in-memory columns and never touches the corpus directory."""

import pytest

from repro.columnar import ColumnarPipeline, build_pipeline
from repro.columnar.pipeline import DATA_COLUMNS
from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
from repro.corpus.manifest import CONTROL_FILE, DATA_FILE


def _load(corpus):
    control = ControlPlaneCorpus.load_jsonl(corpus / CONTROL_FILE)
    data = DataPlaneCorpus.load_npz(corpus / DATA_FILE)
    return control, data


class TestEnginePolicy:
    def test_unknown_engine_rejected(self, stream_corpus):
        control, data = _load(stream_corpus)
        with pytest.raises(TypeError, match="engine"):
            build_pipeline(control, data, [100], engine="records")

    def test_columnar_without_corpus_dir_encodes_in_memory(self,
                                                           stream_corpus):
        control, data = _load(stream_corpus)
        pipeline = build_pipeline(control, data, [100])
        assert isinstance(pipeline, ColumnarPipeline)
        assert tuple(pipeline.data_columns) == DATA_COLUMNS
        for name, column in pipeline.data_columns.items():
            assert column.flags.c_contiguous, name
            assert (column == data.packets[name]).all(), name


def test_corpus_dir_is_accepted_and_ignored(stream_corpus):
    before = sorted(p.name for p in stream_corpus.iterdir())
    control, data = _load(stream_corpus)
    pipeline = build_pipeline(control, data, [100],
                              corpus_dir=stream_corpus, host_min_days=1)
    assert isinstance(pipeline, ColumnarPipeline)
    pipeline.run("fig5_drop_by_length")
    assert sorted(p.name for p in stream_corpus.iterdir()) == before
