"""``repro advance``: incremental corpus extension through the commit
log, and the watcher's equivalence with batch across the extension."""

import shutil

import pytest

from repro import AnalyzeOptions, Study
from repro.errors import StreamError
from repro.runtime.generate import JOURNAL_FILE, SEGMENT_DIR
from repro.streaming import StreamEngine, advance_corpus

#: incremental analyses plus the two batch ones most sensitive to the
#: day-boundary fence — keeps the extended-corpus comparison affordable
CHECKED = ("fig3_load", "fig5_drop_by_length", "fig6_drop_cdfs",
           "table2_pre_classes", "fig19_use_cases")


def test_advance_rejects_bad_day_count(corpus):
    with pytest.raises(StreamError, match="cannot advance"):
        advance_corpus(corpus, 0)


def test_advance_requires_journal(corpus):
    (corpus / JOURNAL_FILE).unlink()
    with pytest.raises(StreamError, match="journal"):
        advance_corpus(corpus, 1)


def test_advance_requires_kept_segments(corpus):
    shutil.rmtree(corpus / SEGMENT_DIR)
    with pytest.raises(StreamError, match="keep-segments"):
        advance_corpus(corpus, 1)


def test_advance_extends_and_stream_matches_batch(corpus):
    engine = StreamEngine.open(corpus, host_min_days=1)
    assert engine.tick() == 3

    report = advance_corpus(corpus, 1)
    assert report.day_count == 4
    assert report.segments_written == 2
    assert Study.open(corpus).validate().ok

    # the same engine picks the new day up as journal tail growth
    assert engine.tick() == 1
    stream = engine.report(CHECKED)

    batch = Study.open(corpus).analyze(options=AnalyzeOptions(
        host_min_days=1, analyses=CHECKED))
    assert stream.fingerprints() == {
        o.name: o.value_digest for o in batch.outcomes}


def test_advance_resume_completes_torn_finalize(corpus):
    """A re-run after a crash between the segment commits and finalize
    resumes the interrupted extension instead of stacking days on it."""
    import json

    from repro.corpus.manifest import CONTROL_FILE, DATA_FILE, file_sha256

    first = advance_corpus(corpus, 1)
    assert first.day_count == 4
    shas = {name: file_sha256(corpus / name)
            for name in (CONTROL_FILE, DATA_FILE)}

    # simulate the torn state: segments journaled, finalize not yet
    # reflected in the platform sidecar
    meta_path = corpus / "platform.json"
    meta = json.loads(meta_path.read_text())
    meta["duration_days"] = 3
    meta_path.write_text(json.dumps(meta))

    resumed = advance_corpus(corpus, 1)
    assert resumed.day_count == 4
    assert resumed.segments_written == 0
    for name, sha in shas.items():
        assert file_sha256(corpus / name) == sha
    assert Study.open(corpus).validate().ok


def test_advance_after_cached_analyze_leaves_corpus_clean(corpus, capsys):
    """``analyze --jobs 2`` caches results against the corpus digest;
    ``advance`` changes that digest, so it must evict those entries or
    ``doctor`` and ``validate`` flag every one as digest drift."""
    from repro.cli import EXIT_OK, main
    from repro.doctor import scrub_corpus
    from repro.parallel.cache import ResultCache

    assert main(["analyze", str(corpus), "--jobs", "2",
                 "--host-min-days", "1"]) == EXIT_OK
    assert list(ResultCache.for_corpus(corpus).entries())

    advance_corpus(corpus, 1)

    report = scrub_corpus(corpus)
    assert report.clean, [str(d) for d in report.damages]
    assert Study.open(corpus).validate().ok
    capsys.readouterr()
    assert main(["doctor", str(corpus)]) == EXIT_OK
