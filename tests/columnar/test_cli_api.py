"""The production engine end to end: the CLI and facade run the columnar
pipeline with no engine choice left to make, and the cross-engine
fingerprint contracts hold (analyze against the record reference path,
stream against analyze)."""

import pytest

from repro.api import AnalyzeOptions, Study, StreamOptions
from repro.cli import main
from repro.core.pipeline import AnalysisPipeline
from repro.corpus import ControlPlaneCorpus, DataPlaneCorpus
from repro.corpus.manifest import CONTROL_FILE, DATA_FILE
from repro.corpus.platform import load_platform


def _digests(report):
    return {o.name: o.value_digest for o in report.outcomes}


@pytest.fixture(scope="module")
def study(stream_corpus):
    return Study.open(stream_corpus)


class TestFacade:
    def test_all_engines_fingerprint_identically(self, study,
                                                 stream_corpus):
        peers, rs_asn, peeringdb = load_platform(stream_corpus)
        reference = AnalysisPipeline(
            ControlPlaneCorpus.load_jsonl(stream_corpus / CONTROL_FILE),
            DataPlaneCorpus.load_npz(stream_corpus / DATA_FILE),
            peers, peeringdb=peeringdb, route_server_asn=rs_asn,
            host_min_days=1).run_all(strict=False)
        records = _digests(reference)
        assert records  # non-empty: every analysis ran
        assert _digests(study.analyze(options=AnalyzeOptions(
            host_min_days=1))) == records

    def test_stream_matches_columnar_analyze(self, study):
        stream = study.stream(options=StreamOptions(
            host_min_days=1, cache=False, fresh=True))
        batch = study.analyze(options=AnalyzeOptions(host_min_days=1))
        assert stream.fingerprints() == _digests(batch)

    def test_unknown_engine_raises(self):
        # one production engine: there is no engine option to set
        with pytest.raises(TypeError, match="engine"):
            AnalyzeOptions(engine="columnar")


class TestCLI:
    def test_bad_engine_is_a_usage_error(self, stream_corpus, capsys):
        for engine in ("simd", "columnar"):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", str(stream_corpus), "--engine", engine])
            assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err
