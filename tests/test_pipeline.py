"""End-to-end pipeline checks against the hand-computed demo dataset."""

import pytest

from uniprod.bibliometrics import (
    INPUT_LABELS,
    OUTPUT_LABELS,
    MatchedCorpus,
    build_input_vector,
    compute_output_vector,
)
from uniprod.config import RunConfig
from uniprod.dea import DeaProblem, DmuRecord, decompose
from uniprod.disambiguation import disambiguate_corpus
from uniprod.errors import MissingDataError, StructuralError
from uniprod.ingest import ingest
from uniprod.pipeline import FAILURE_NOT_ANALYZABLE, descriptive_stats, run_pipeline
from uniprod.records import StaffRegistry

from .fixtures import (
    EXPECTED_DISAMB,
    EXPECTED_DISAMB_WITH_OVERRIDE,
    EXPECTED_EXCLUDED,
    EXPECTED_GLOBAL_WEIGHTS,
    EXPECTED_INPUTS,
    EXPECTED_MANUAL_ROW,
    EXPECTED_OUTPUTS,
    EXPECTED_PARTIAL,
    EXPECTED_PC_A01_U2_WITH_OVERRIDE,
    EXPECTED_PTE_AFTER_DROP_PR,
    EXPECTED_SENSITIVITY,
    EXPECTED_STAFF_TOTALS,
    write_demo_dataset,
)
from .oracles import cell_outputs_bruteforce


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = write_demo_dataset(tmp_path_factory.mktemp("demo"))
    return ingest(root)


@pytest.fixture(scope="module")
def config():
    return RunConfig(compare_partial=True, drop_inputs=("PR",))


@pytest.fixture(scope="module")
def report(corpus, config):
    return run_pipeline(corpus, config)


class TestVectors:
    def test_input_vectors_match_hand_values(self, corpus, config):
        for (area, uni), expected in EXPECTED_INPUTS.items():
            vec = build_input_vector(corpus.staff, corpus.funding, area, uni,
                                     config.years, config.lag)
            assert vec.as_tuple() == pytest.approx(
                expected, abs=1e-12), (area, uni)
            assert vec.staff_total == EXPECTED_STAFF_TOTALS[(area, uni)]

    def test_lagged_window_drops_out_of_range_funding(self, corpus, config):
        # U3/A01 has a 2003 grant; the lagged window is 2000-2002.
        vec = build_input_vector(corpus.staff, corpus.funding, "A01", "U3",
                                 config.years, config.lag)
        assert vec.pr == 0.0

    def test_output_vectors_match_hand_values(self, corpus, config):
        disamb = disambiguate_corpus(corpus.publications, corpus.staff,
                                     corpus.affiliations)
        matched = MatchedCorpus(corpus.publications, disamb.matched_cells)
        for (area, uni), expected in EXPECTED_OUTPUTS.items():
            warnings: list[str] = []
            vec = compute_output_vector(matched, corpus.journals, area, uni,
                                        config.years, warnings)
            assert vec.as_tuple() == pytest.approx(
                expected, abs=1e-12), (area, uni)
            oracle = cell_outputs_bruteforce(
                corpus.publications, disamb.assignments, corpus.staff,
                corpus.journals, area, uni, config.years)
            assert vec.as_tuple() == pytest.approx(
                oracle, abs=1e-12)

    def test_override_gives_full_credit(self, corpus, config):
        disamb = disambiguate_corpus(corpus.publications, corpus.staff,
                                     corpus.affiliations,
                                     {("P029", 1): "S027"})
        matched = MatchedCorpus(corpus.publications, disamb.matched_cells)
        vec = compute_output_vector(matched, corpus.journals, "A01", "U2",
                                    config.years, [])
        assert vec.pc == pytest.approx(EXPECTED_PC_A01_U2_WITH_OVERRIDE)
        assert vec.pu == EXPECTED_OUTPUTS[("A01", "U2")][0]


class TestReportTables:
    def test_areas_and_success(self, report):
        assert report.areas_analyzed == ("A01", "A02")
        assert report.fully_successful
        assert report.area_failure_rows == ()

    def test_all_units_efficient(self, report):
        assert len(report.score_rows) == len(EXPECTED_INPUTS)
        for row in report.score_rows:
            assert (row["area_id"], row["university_id"]) in EXPECTED_INPUTS
            assert row["te"] == 1.0
            assert row["pte"] == 1.0
            assert row["se"] == 1.0
            assert row["rts"] == "constant"
            assert row["theta"] == 1.0
            assert row["area_rank"] == 1

    def test_scores_agree_with_direct_solver(self, report):
        """The report wiring must reproduce a by-hand solve of the same
        vectors."""
        for area in report.areas_analyzed:
            dmus = tuple(
                DmuRecord(uni, EXPECTED_INPUTS[(a, uni)],
                          EXPECTED_OUTPUTS[(a, uni)])
                for (a, uni) in sorted(EXPECTED_INPUTS) if a == area
            )
            problem = DeaProblem(dmus, INPUT_LABELS, OUTPUT_LABELS)
            direct = {r.dmu_id: r for r in decompose(problem)}
            for row in report.score_rows:
                if row["area_id"] != area:
                    continue
                ref = direct[row["university_id"]]
                assert row["te"] == pytest.approx(ref.te, abs=1e-12)
                assert row["pte"] == pytest.approx(ref.pte, abs=1e-12)
                assert row["se"] == pytest.approx(ref.se, abs=1e-12)
                assert row["rts"] == ref.rts

    def test_descriptive_rows(self, report):
        rows = {(r["area_id"], r["variable"]): r
                for r in report.descriptive_rows}
        pu = rows[("A01", "PU")]
        assert pu["n"] == 3
        assert pu["mean"] == pytest.approx(6.0)
        assert pu["min"] == 2.0 and pu["max"] == 11.0
        pr = rows[("A01", "PR")]
        assert pr["min"] == 0.0
        assert pr["max"] == pytest.approx(200.0 / 3.0)
        ss = rows[("A02", "SS")]
        assert ss["mean"] == pytest.approx((7.5 + 2.4) / 2)

    def test_exclusion_row(self, report):
        assert len(report.exclusion_rows) == 1
        row = report.exclusion_rows[0]
        assert (row["area_id"], row["university_id"]) == (
            EXPECTED_EXCLUDED[0], EXPECTED_EXCLUDED[1])
        assert row["reason"] == "below_staff_threshold"

    def test_disambiguation_row(self, report):
        assert report.disambiguation_row == EXPECTED_DISAMB

    def test_manual_review_rows(self, report):
        assert len(report.manual_review_rows) == 1
        assert report.manual_review_rows[0] == EXPECTED_MANUAL_ROW

    def test_partial_rows(self, report):
        rows = {r["area_id"]: r for r in report.partial_rows}
        assert set(rows) == set(EXPECTED_PARTIAL)
        for area, expected in EXPECTED_PARTIAL.items():
            for key, value in expected.items():
                assert rows[area][key] == pytest.approx(value), (area, key)

    def test_sensitivity_rows(self, report):
        rows = {r["area_id"]: r for r in report.sensitivity_rows}
        assert set(rows) == set(EXPECTED_SENSITIVITY)
        for area, expected in EXPECTED_SENSITIVITY.items():
            assert rows[area]["dropped_input"] == "PR"
            for key, value in expected.items():
                assert rows[area][key] == pytest.approx(value), (area, key)

    def test_sensitivity_after_scores_match_hand_values(self):
        """Check the recomputed frontier itself, not only the summary."""
        from uniprod.analysis import sensitivity_drop_input

        for area in ("A01", "A02"):
            dmus = tuple(
                DmuRecord(uni, EXPECTED_INPUTS[(a, uni)],
                          EXPECTED_OUTPUTS[(a, uni)])
                for (a, uni) in sorted(EXPECTED_INPUTS) if a == area
            )
            problem = DeaProblem(dmus, INPUT_LABELS, OUTPUT_LABELS)
            result = sensitivity_drop_input(problem, "PR")
            for uni, score in result.scores_after.items():
                assert score == pytest.approx(
                    EXPECTED_PTE_AFTER_DROP_PR[(area, uni)], abs=1e-9)

    def test_global_rows(self, report):
        rows = {r["university_id"]: r for r in report.global_rows}
        assert set(rows) == set(EXPECTED_GLOBAL_WEIGHTS)
        for uni, weight in EXPECTED_GLOBAL_WEIGHTS.items():
            assert rows[uni]["theta_tot"] == pytest.approx(1.0)
            assert rows[uni]["rank"] == 1
            assert rows[uni]["staff_weight_total"] == pytest.approx(weight)
        assert rows["U1"]["areas_active"] == 2
        assert rows["U3"]["areas_active"] == 1

    def test_tertile_rows_all_efficient(self, report):
        rows = {r["area_id"]: r for r in report.tertile_rows}
        assert rows["A01"]["efficient"] == 3
        assert rows["A01"]["inefficient"] == 0
        assert rows["A01"]["t1_n"] == 0
        assert rows["A01"]["t1_mean"] is None

    def test_warnings_mention_weightless_journal(self, report):
        assert any("J3" in w for w in report.warning_rows)
        assert list(report.warning_rows) == sorted(set(report.warning_rows))

    def test_descriptive_stats_population_sigma(self):
        problem = DeaProblem(
            (DmuRecord("A", (1.0,), (1.0,)),
             DmuRecord("B", (2.0,), (2.0,)),
             DmuRecord("C", (3.0,), (3.0,))),
            ("FP",), ("PU",))
        rows = descriptive_stats(problem)
        assert rows[0]["std_dev"] == pytest.approx(0.816496580927726)


class TestOverridesAndRegimes:
    def test_pipeline_with_overrides(self, corpus, config):
        report = run_pipeline(corpus, config, {("P029", 1): "S027"})
        assert report.disambiguation_row == EXPECTED_DISAMB_WITH_OVERRIDE
        assert report.manual_review_rows == ()

    def test_crs_regime_has_te_only(self, corpus):
        report = run_pipeline(corpus, RunConfig(regime="crs"))
        for row in report.score_rows:
            assert row["te"] is not None
            assert row["pte"] is None and row["se"] is None
            assert row["rts"] is None and row["theta"] is None
        assert report.tertile_rows == ()
        assert report.global_rows == ()
        eff = report.efficiency_rows[0]
        assert eff["te_mean"] is not None and eff["pte_mean"] is None

    def test_vrs_regime_has_pte_and_analytics(self, corpus):
        report = run_pipeline(corpus, RunConfig(regime="vrs"))
        for row in report.score_rows:
            assert row["pte"] is not None and row["theta"] is not None
            assert row["te"] is None and row["se"] is None
        assert report.tertile_rows != ()
        assert report.global_rows != ()

    def test_crs_regime_skips_vrs_analytics_even_with_flags(self, corpus):
        # Both analytics need PTE, which the CRS regime never computes;
        # the configuration is refused instead of writing empty tables.
        with pytest.raises(StructuralError, match="--regime vrs or all"):
            RunConfig(regime="crs", compare_partial=True, drop_inputs=("PR",))


class TestFailureHandling:
    def test_area_failure_is_isolated(self, tmp_path, config):
        # Removing U2/A02's staff leaves A02 with one analyzable unit.
        root = write_demo_dataset(
            tmp_path / "thin",
            skip_staff_ids=frozenset({"S021", "S022", "S023", "S024", "S025"}),
        )
        corpus = ingest(root)
        report = run_pipeline(corpus, config)
        assert report.areas_analyzed == ("A01",)
        assert not report.fully_successful
        assert len(report.area_failure_rows) == 1
        failure = report.area_failure_rows[0]
        assert failure["area_id"] == "A02"
        assert failure["reason"] == FAILURE_NOT_ANALYZABLE
        # A01's tables are complete despite the failure.
        assert sum(1 for r in report.score_rows if r["area_id"] == "A01") == 3
        assert any(r["area_id"] == "A01" for r in report.sensitivity_rows)

    def test_uncovered_snapshot_year_is_fatal(self, corpus):
        with pytest.raises(MissingDataError):
            run_pipeline(corpus, RunConfig(years=(1990,)))

    def test_staff_coverage_read_once(self, corpus, config, monkeypatch):
        calls = []
        coverage = StaffRegistry.coverage

        def counting(registry):
            calls.append(registry)
            return coverage(registry)

        monkeypatch.setattr(StaffRegistry, "coverage", counting)
        run_pipeline(corpus, config)
        assert len(calls) == 1

    def test_empty_report_when_every_area_fails(self, corpus, config):
        from dataclasses import replace

        strict = replace(config, min_staff=50.0)
        report = run_pipeline(corpus, strict)
        assert report.areas_analyzed == ()
        assert report.score_rows == ()
        assert report.global_rows == ()
        assert len(report.area_failure_rows) == 2
        # Disambiguation still ran and is reported.
        assert report.disambiguation_row == EXPECTED_DISAMB


class TestDeterminism:
    def test_two_runs_identical(self, corpus, config):
        first = run_pipeline(corpus, config)
        second = run_pipeline(corpus, config)
        assert first == second
