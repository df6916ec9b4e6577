"""The columnar engine against the corpus state plane: it leaves nothing
on disk for ``validate`` or ``doctor`` to check, corpora written by
versions that kept ``.columnar/`` sidecars stay clean and analyze
identically, and the meta-test proves the differential harness actually
catches a flipped input bit."""

import shutil

import numpy as np
import pytest

from repro.api import AnalyzeOptions, Study
from repro.columnar.pipeline import ColumnarPipeline
from repro.core.pipeline import AnalysisPipeline
from repro.core.registry import columnar_names
from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
from repro.corpus.manifest import CONTROL_FILE, DATA_FILE, validate_corpus
from repro.doctor import scrub_corpus
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.generate import JOURNAL_FILE, checkpointed_generate
from repro.scenario import ScenarioConfig

from tests.columnar.conftest import assert_twin_outcomes, outcome


def _codes(report):
    return {issue.code for issue in report.issues}


def _digests(corpus):
    report = Study.open(corpus).analyze(
        options=AnalyzeOptions(host_min_days=1))
    return {o.name: o.value_digest for o in report.outcomes}


class TestValidate:
    def test_clean_corpus_has_no_columnar_issues(self, stream_corpus):
        assert not any(code.startswith("columnar")
                       for code in _codes(validate_corpus(stream_corpus)))


class TestDoctor:
    def test_clean_scrub(self, stream_corpus):
        assert scrub_corpus(stream_corpus).clean


class TestOlderCorpusCompatibility:
    """A corpus from a version that wrote ``.columnar/{control,data}.col``
    and journaled them under ``columnar:*`` keys: nothing reads either
    any more, so both are inert leftovers."""

    @pytest.fixture()
    def older(self, stream_corpus, tmp_path):
        target = tmp_path / "older"
        shutil.copytree(stream_corpus, target)
        (target / ".columnar").mkdir()
        (target / ".columnar" / "data.col").write_bytes(b"RCOL\x01junk")
        journal = CheckpointJournal.load(target / JOURNAL_FILE)
        for plane in ("control", "data"):
            journal.commit(f"columnar:{plane}", sha256="0" * 64,
                           source_sha256="1" * 64, rows=1)
        return target

    def test_validate_and_doctor_clean(self, older):
        report = validate_corpus(older)
        assert report.ok, [str(issue) for issue in report.issues]
        assert not report.issues
        scrub = scrub_corpus(older)
        assert scrub.clean, [str(d) for d in scrub.damages]

    def test_analyze_matches_clean_copy(self, older, stream_corpus):
        assert _digests(older) == _digests(stream_corpus)

    def test_resume_reports_already_complete(self, older):
        journal = CheckpointJournal.load(older / JOURNAL_FILE)
        segment_keys = [key for key in journal.keys()
                        if key.startswith("segment:")]
        report = checkpointed_generate(
            ScenarioConfig.paper(scale=0.01, duration_days=3.0, seed=11),
            older, resume=True, keep_segments=True)
        assert report.already_complete
        assert report.segments_total == len(segment_keys) == 6


class TestMetaCorruption:
    """Flip one input bit the kernels actually read and prove the
    differential harness fails — the suite's own smoke detector."""

    def test_flipped_bit_fails_the_differential_suite(self, stream_corpus):
        control = ControlPlaneCorpus.load_jsonl(stream_corpus / CONTROL_FILE)
        data = DataPlaneCorpus.load_npz(stream_corpus / DATA_FILE)
        record = AnalysisPipeline(control, data, [100], host_min_days=1)
        columnar = ColumnarPipeline(control, data, [100], host_min_days=1)
        assert "events" not in columnar.__dict__
        dropped = columnar.data_columns["dropped"]
        flagged = np.flatnonzero(dropped)
        assert flagged.size, "the seeded corpus always drops traffic"
        dropped[flagged[0]] = False  # the first dropped packet
        diverged = []
        for name in columnar_names():
            rec, col = outcome(record, name), outcome(columnar, name)
            if (col.status, col.value_digest) != (rec.status,
                                                  rec.value_digest):
                diverged.append(name)
        assert diverged, ("a flipped dropped bit must change at least "
                          "one columnar fingerprint")
        with pytest.raises(AssertionError):
            for name in columnar_names():
                assert_twin_outcomes(record, columnar, name)
