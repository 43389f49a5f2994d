"""Tests for the content-addressed job model and batch manifests."""

import json

import pytest

from repro.service import (
    AnalysisJob,
    ServiceError,
    canonical_analysis_name,
    canonical_feature_model_text,
    known_analyses,
    load_manifest,
    paper_campaign_jobs,
    parse_manifest,
)
from repro.spl import figure1_with_model
from repro.spl.examples import FIGURE1_SOURCE

FM_TEXT = """
featuremodel fig1
root Fig1 { optional F optional G optional H }
"""


class TestAnalysisNames:
    def test_aliases_canonicalize(self):
        assert canonical_analysis_name("types") == "possible_types"
        assert canonical_analysis_name("rd") == "reaching_definitions"
        assert canonical_analysis_name("uninit") == "uninitialized_variables"
        assert canonical_analysis_name("Possible Types") == "possible_types"

    def test_unknown_analysis_raises(self):
        with pytest.raises(ServiceError, match="unknown analysis"):
            canonical_analysis_name("points-to")

    def test_known_analyses_are_canonical(self):
        names = known_analyses()
        assert "possible_types" in names
        assert "types" not in names
        assert names == tuple(sorted(names))


class TestJobDigests:
    def test_digest_is_stable(self):
        a = AnalysisJob(label="x", source=FIGURE1_SOURCE, analysis="taint")
        b = AnalysisJob(label="y", source=FIGURE1_SOURCE, analysis="taint")
        # The label is presentation-only; content decides identity.
        assert a.digest == b.digest

    def test_alias_and_canonical_name_share_digest(self):
        a = AnalysisJob(label="x", source=FIGURE1_SOURCE, analysis="types")
        b = AnalysisJob(
            label="x", source=FIGURE1_SOURCE, analysis="possible_types"
        )
        assert a.analysis == b.analysis == "possible_types"
        assert a.digest == b.digest

    def test_source_changes_digest(self):
        a = AnalysisJob(label="x", source=FIGURE1_SOURCE, analysis="taint")
        b = AnalysisJob(
            label="x", source=FIGURE1_SOURCE + "\n", analysis="taint"
        )
        assert a.digest != b.digest

    def test_fm_mode_changes_digest(self):
        a = AnalysisJob(label="x", source=FIGURE1_SOURCE, analysis="taint")
        b = AnalysisJob(
            label="x", source=FIGURE1_SOURCE, analysis="taint", fm_mode="ignore"
        )
        assert a.digest != b.digest

    def test_private_options_excluded_from_digest(self):
        plain = AnalysisJob(label="x", source=FIGURE1_SOURCE, analysis="taint")
        hooked = AnalysisJob(
            label="x",
            source=FIGURE1_SOURCE,
            analysis="taint",
            options={"_test_sleep": 30},
        )
        assert hooked.public_options == {}
        assert plain.digest == hooked.digest

    def test_public_options_change_digest(self):
        plain = AnalysisJob(label="x", source=FIGURE1_SOURCE, analysis="taint")
        ordered = AnalysisJob(
            label="x",
            source=FIGURE1_SOURCE,
            analysis="taint",
            options={"worklist_order": "lifo"},
        )
        assert plain.digest != ordered.digest

    def test_bad_fm_mode_raises(self):
        with pytest.raises(ServiceError, match="fm_mode"):
            AnalysisJob(
                label="x", source=FIGURE1_SOURCE, analysis="taint", fm_mode="no"
            )


class TestJobOptions:
    """Public options are checked when the job is built, so a typo can
    neither run with defaults nor name a store entry."""

    def test_unknown_option_names_key_and_known_keys(self):
        with pytest.raises(ServiceError) as excinfo:
            AnalysisJob(
                label="x",
                source=FIGURE1_SOURCE,
                analysis="taint",
                options={"reorderr": "sift"},
            )
        message = str(excinfo.value)
        assert "'reorderr'" in message
        assert "engine, order_seed, worklist_order" in message

    @pytest.mark.parametrize(
        "options",
        [
            {"worklist_order": "bogus"},
            {"engine": "prolog"},
            {"order_seed": "seven"},
            {"order_seed": None},
        ],
    )
    def test_malformed_option_value_raises(self, options):
        (key,) = options
        with pytest.raises(ServiceError, match=f"job option '{key}'"):
            AnalysisJob(
                label="x", source=FIGURE1_SOURCE, analysis="taint", options=options
            )

    def test_solve_options_checked_and_converted(self):
        job = AnalysisJob(
            label="x",
            source=FIGURE1_SOURCE,
            analysis="taint",
            options={
                "engine": "datalog",
                "worklist_order": "rpo",
                "order_seed": "3",
                "_test_sleep": 30,
            },
        )
        assert job.solve_options() == {
            "engine": "datalog",
            "worklist_order": "rpo",
            "order_seed": 3,
        }


class TestFeatureModelCanonicalization:
    def test_file_and_programmatic_model_share_digest(self, tmp_path):
        source_path = tmp_path / "fig1.mj"
        source_path.write_text(FIGURE1_SOURCE)
        fm_path = tmp_path / "fig1.fm"
        fm_path.write_text(FM_TEXT)
        from_files = AnalysisJob.from_files(
            str(source_path), "taint", feature_model=str(fm_path)
        )
        from repro.featuremodel import parse_feature_model

        from_memory = AnalysisJob(
            label="x",
            source=FIGURE1_SOURCE,
            analysis="taint",
            feature_model_text=canonical_feature_model_text(
                parse_feature_model(FM_TEXT)
            ),
        )
        assert from_files.digest == from_memory.digest

    def test_formatting_does_not_change_digest(self, tmp_path):
        """Same model, different whitespace — one canonical digest."""
        reformatted = FM_TEXT.replace(
            "{ optional F optional G optional H }",
            "{\n  optional F\n  optional G\n  optional H\n}",
        )
        assert reformatted != FM_TEXT
        source_path = tmp_path / "fig1.mj"
        source_path.write_text(FIGURE1_SOURCE)
        digests = []
        for index, text in enumerate((FM_TEXT, reformatted)):
            fm_path = tmp_path / f"m{index}.fm"
            fm_path.write_text(text)
            digests.append(
                AnalysisJob.from_files(
                    str(source_path), "taint", feature_model=str(fm_path)
                ).digest
            )
        assert digests[0] == digests[1]

    def test_empty_model_is_empty_text(self):
        from repro.featuremodel import FeatureModel

        assert canonical_feature_model_text(None) == ""
        assert canonical_feature_model_text(FeatureModel()) == ""

    def test_round_trips_through_job(self):
        product_line = figure1_with_model()
        job = AnalysisJob.from_product_line(product_line, "taint")
        model = job.feature_model()
        assert canonical_feature_model_text(model) == job.feature_model_text

    def test_unreadable_inputs_raise_service_error(self, tmp_path):
        with pytest.raises(ServiceError, match="cannot read"):
            AnalysisJob.from_files(str(tmp_path / "missing.mj"), "taint")
        source_path = tmp_path / "fig1.mj"
        source_path.write_text(FIGURE1_SOURCE)
        fm_path = tmp_path / "bad.fm"
        fm_path.write_text("root A {{{")
        with pytest.raises(ServiceError, match="bad feature model"):
            AnalysisJob.from_files(
                str(source_path), "taint", feature_model=str(fm_path)
            )


class TestManifests:
    def test_paper_campaign_is_twelve_jobs(self):
        jobs = paper_campaign_jobs()
        assert len(jobs) == 12
        assert len({job.digest for job in jobs}) == 12
        labels = {job.label for job in jobs}
        assert labels == {
            "BerkeleyDB-like", "GPL-like", "Lampiro-like", "MM08-like"
        }

    def test_campaign_manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"campaign": "paper"}')
        assert len(load_manifest(str(manifest))) == 12

    def test_inline_source_job(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {"jobs": [{"source": FIGURE1_SOURCE, "analysis": "taint"}]}
            )
        )
        (job,) = load_manifest(str(manifest))
        assert job.analysis == "taint"
        assert job.source == FIGURE1_SOURCE

    def test_file_job_resolves_relative_to_manifest(self, tmp_path):
        (tmp_path / "fig1.mj").write_text(FIGURE1_SOURCE)
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps({"jobs": [{"file": "fig1.mj", "analysis": "taint"}]})
        )
        (job,) = load_manifest(str(manifest))
        assert job.source == FIGURE1_SOURCE

    def test_subject_job(self):
        jobs = parse_manifest(
            {"jobs": [{"subject": "GPL-like", "analysis": "types"}]},
            base_dir=None,
        )
        assert jobs[0].label == "GPL-like"
        assert jobs[0].analysis == "possible_types"

    @pytest.mark.parametrize(
        "document, message",
        (
            ([], "must be a JSON object"),
            ({"campaign": "nope"}, "unknown campaign"),
            ({"jobs": "x"}, '"jobs" must be a list'),
            ({"jobs": [[]]}, "must be a JSON object"),
            ({"jobs": [{"file": "a.mj"}]}, 'missing "analysis"'),
            ({"jobs": [{"analysis": "taint"}]}, "needs one of"),
            ({}, "no jobs"),
            (
                {"jobs": [{"subject": "Zelda", "analysis": "taint"}]},
                "unknown benchmark subject",
            ),
            (
                {"jobs": [{"source": "x", "analysis": "zzz"}]},
                "unknown analysis",
            ),
        ),
    )
    def test_bad_manifests_raise(self, document, message, tmp_path):
        with pytest.raises(ServiceError, match=message):
            parse_manifest(document, base_dir=tmp_path)

    def test_unparseable_manifest_file(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("{not json")
        with pytest.raises(ServiceError, match="bad manifest"):
            load_manifest(str(manifest))

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(ServiceError, match="cannot read"):
            load_manifest(str(tmp_path / "missing.json"))
