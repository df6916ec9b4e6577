"""The named analysis registry: analyses are addressed by name only."""

import pytest

from repro import ANALYSES, get_analysis
from repro.core.pipeline import ANALYSIS_NAMES
from repro.core.registry import CONTROL, DATA
from repro.errors import AnalysisError


def test_registry_covers_the_full_study():
    assert len(ANALYSES) == 16
    assert ANALYSIS_NAMES == tuple(spec.name for spec in ANALYSES)


def test_every_spec_is_complete():
    for spec in ANALYSES:
        assert spec.section, spec.name
        assert spec.title, spec.name
        assert spec.inputs, spec.name
        assert set(spec.inputs) <= {CONTROL, DATA}, spec.name


def test_incremental_flags():
    incremental = {spec.name for spec in ANALYSES if spec.incremental}
    assert incremental == {"fig3_load", "fig5_drop_by_length",
                           "fig6_drop_cdfs", "table2_pre_classes",
                           "fig19_use_cases"}


def test_get_analysis_unknown_name():
    with pytest.raises(AnalysisError, match="unknown analysis"):
        get_analysis("fig99_nonsense")


def test_run_rejects_unknown_name(tiny_pipeline):
    with pytest.raises(AnalysisError):
        tiny_pipeline.run("fig99_nonsense")


def test_analyses_have_no_per_figure_accessors(tiny_pipeline):
    for name in ANALYSIS_NAMES:
        assert not hasattr(tiny_pipeline, name), name
