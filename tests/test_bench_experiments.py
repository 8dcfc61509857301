"""Smoke and shape tests for the experiment harness (tables, figures, cleanup).

These run every table/figure generator at a tiny scale and assert the
qualitative relationships the paper reports — the same checks the targets
under ``benchmarks/`` make at the larger benchmark scale, whose rows are
recorded in ``benchmarks/results/``.
"""

import pytest

from repro.bench import cleanup_exp, figures, report, tables


pytestmark = pytest.mark.filterwarnings("ignore")


class TestTable1:
    def test_rows_cover_all_structures(self):
        rows = tables.table1_rows(small_elements=1 << 9, large_elements=1 << 11,
                                  batch_size=1 << 7)
        names = {r["structure"] for r in rows}
        assert names == {"gpu_lsm", "sorted_array", "cuckoo_hash"}

    def test_capability_matrix_matches_paper(self):
        rows = {r["structure"]: r for r in tables.table1_rows(
            small_elements=1 << 9, large_elements=1 << 11, batch_size=1 << 7)}
        assert not rows["cuckoo_hash"]["supports_insert"]
        assert not rows["cuckoo_hash"]["supports_range"]
        assert rows["gpu_lsm"]["supports_range"]
        assert rows["sorted_array"]["supports_count"]

    def test_insert_work_growth_sa_worse_than_lsm(self):
        rows = {r["structure"]: r for r in tables.table1_rows(
            small_elements=1 << 9, large_elements=1 << 12, batch_size=1 << 6)}
        # Per-item insertion work: the SA grows ~linearly with n, the LSM
        # logarithmically — the growth ratio must reflect that ordering.
        assert (rows["sorted_array"]["insert_growth_ratio"]
                > rows["gpu_lsm"]["insert_growth_ratio"])

    def test_cuckoo_lookup_work_flat(self):
        rows = {r["structure"]: r for r in tables.table1_rows(
            small_elements=1 << 9, large_elements=1 << 12, batch_size=1 << 6)}
        assert rows["cuckoo_hash"]["lookup_growth_ratio"] < 1.5


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return tables.table2_insertion(total_elements=1 << 13)

    def test_row_per_batch_size_plus_summary(self, rows):
        assert rows[-1]["batch_size"] == "mean"
        assert len(rows) >= 4

    def test_lsm_mean_beats_sa_mean_overall(self, rows):
        summary = rows[-1]
        assert summary["lsm_mean_rate"] > summary["sa_mean_rate"]
        assert summary["lsm_over_sa_speedup"] > 1.0

    def test_rates_decrease_with_smaller_batches(self, rows):
        lsm_means = [r["lsm_mean_rate"] for r in rows[:-1]]
        assert lsm_means[0] > lsm_means[-1]

    def test_lsm_advantage_grows_for_small_batches(self, rows):
        first = rows[0]
        last = rows[-2]
        ratio_large_b = first["lsm_mean_rate"] / first["sa_mean_rate"]
        ratio_small_b = last["lsm_mean_rate"] / last["sa_mean_rate"]
        assert ratio_small_b > ratio_large_b

    def test_min_rate_not_above_max(self, rows):
        for r in rows[:-1]:
            assert r["lsm_min_rate"] <= r["lsm_max_rate"]
            assert r["sa_min_rate"] <= r["sa_max_rate"]

    def test_cuckoo_build_slower_than_sort_based_build(self, rows):
        summary = rows[-1]
        # Cuckoo build rate is compared against the single-batch (pure sort)
        # insertion rate of the largest batch size.
        assert summary["cuckoo_build_rate"] < rows[0]["lsm_max_rate"]


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return tables.table3_lookup(total_elements=1 << 12,
                                    queries_per_cell=1 << 10,
                                    max_resident_samples=3)

    def test_sa_not_slower_than_lsm_on_average(self, rows):
        for r in rows[:-1]:
            assert r["sa_none_mean"] >= 0.9 * r["lsm_none_mean"]

    def test_all_exist_at_least_none_exist(self, rows):
        for r in rows[:-1]:
            assert r["lsm_all_mean"] >= 0.95 * r["lsm_none_mean"]

    def test_smaller_batches_have_lower_worst_case_lsm_rates(self, rows):
        # Smaller batches mean more occupied levels at full size, so the
        # worst-case (min) lookup rate must drop.  (The harmonic-mean column
        # only becomes monotone at larger scales; see
        # benchmarks/results/table3_lookup_rates.csv.)
        mins = [r["lsm_none_min"] for r in rows[:-1]]
        assert mins[-1] <= mins[0]

    def test_cuckoo_fastest(self, rows):
        cuckoo = rows[-1]
        best_lsm = max(r["lsm_all_mean"] for r in rows[:-1])
        assert cuckoo["lookup_all_rate"] > best_lsm


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        return tables.table4_count_range(total_elements=1 << 11,
                                         queries_per_cell=64,
                                         max_resident_samples=2,
                                         expected_widths=(8, 128))

    def test_rows_cover_both_operations(self, rows):
        ops = {r["operation"] for r in rows}
        assert ops == {"count", "range"}

    def test_larger_ranges_are_slower(self, rows):
        for r in rows:
            assert r["lsm_L8_mean"] > r["lsm_L128_mean"]

    def test_count_not_slower_than_range(self, rows):
        count_rows = {r["batch_size"]: r for r in rows if r["operation"] == "count"}
        range_rows = {r["batch_size"]: r for r in rows if r["operation"] == "range"}
        for b, cr in count_rows.items():
            assert cr["lsm_L8_mean"] >= 0.9 * range_rows[b]["lsm_L8_mean"]

    def test_sa_not_slower_than_lsm(self, rows):
        for r in rows:
            assert r["sa_L8_mean"] >= 0.8 * r["lsm_L8_mean"]


class TestBulkBuild:
    def test_sort_based_builds_beat_cuckoo(self):
        rows = {r["structure"]: r for r in
                tables.bulk_build_rows(total_elements=1 << 13, batch_size=1 << 9)}
        assert rows["gpu_lsm"]["build_rate"] > rows["cuckoo_hash"]["build_rate"]
        assert rows["sorted_array"]["build_rate"] > rows["cuckoo_hash"]["build_rate"]
        assert rows["ratio_lsm_over_cuckoo"]["build_rate"] > 1.0


class TestFigure4a:
    def test_sawtooth_shape(self):
        series = figures.figure4a_series(batch_size=1 << 8, num_batches=32)
        assert len(series) == 32
        times = {p["resident_batches"]: p["time_ms"] for p in series}
        merges = {p["resident_batches"]: p["merges"] for p in series}
        # Insertions that trigger no merge (odd r) are the cheapest; the
        # insertion that cascades all the way (r = 32) is the most expensive.
        no_merge_times = [t for r, t in times.items() if merges[r] == 0]
        assert times[32] == max(times.values())
        assert max(no_merge_times) < times[32]
        # Merge count equals ffz(r-1).
        assert merges[32] == 5
        assert merges[1] == 0

    def test_ffz(self):
        assert figures.ffz(0) == 0
        assert figures.ffz(1) == 1
        assert figures.ffz(7) == 3
        assert figures.ffz(8) == 0


class TestFigure4b:
    def test_lsm_beats_sa_and_degrades_slower(self):
        series = figures.figure4b_series(batch_sizes=(1 << 8, 1 << 9),
                                         total_elements=1 << 12)
        for b in (1 << 8, 1 << 9):
            lsm = series[f"lsm_b={b}"]
            sa = series[f"sa_b={b}"]
            # At the end of the run the LSM's effective rate exceeds the SA's.
            assert lsm[-1]["effective_rate"] > sa[-1]["effective_rate"]
            # And the SA degrades by a larger factor from its starting rate.
            lsm_drop = lsm[0]["effective_rate"] / lsm[-1]["effective_rate"]
            sa_drop = sa[0]["effective_rate"] / sa[-1]["effective_rate"]
            assert sa_drop > lsm_drop


class TestCleanupExperiments:
    def test_cleanup_faster_than_rebuild(self):
        rows = cleanup_exp.cleanup_rate_rows(batch_size=1 << 7, num_batches=31,
                                             stale_fractions=(0.1, 0.5))
        for r in rows:
            assert r["cleanup_over_rebuild"] > 1.0

    def test_cleanup_speeds_up_queries(self):
        result = cleanup_exp.cleanup_query_speedup(batch_size=1 << 7,
                                                   num_batches=63,
                                                   stale_fraction=0.2,
                                                   num_queries=1 << 11)
        assert result["levels_after"] <= result["levels_before"]
        assert result["speedup_queries_only"] > 1.0

    def test_rejects_bad_stale_fraction(self):
        with pytest.raises(ValueError):
            cleanup_exp.cleanup_rate_rows(batch_size=1 << 7, num_batches=7,
                                          stale_fractions=(1.5,))


class TestReport:
    def test_format_table_renders_all_rows(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": float("nan"), "c": "x"}]
        text = report.format_table(rows, title="T")
        assert "T" in text and "a" in text and "c" in text
        assert text.count("\n") >= 4

    def test_format_series(self):
        series = {"s": [{"x": 1, "y": 2.0}]}
        text = report.format_series(series, "x", "y", title="F")
        assert "[s]" in text

    def test_write_csv_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": "z"}, {"a": 2, "b": "y"}]
        path = report.write_csv(rows, str(tmp_path / "out.csv"))
        content = open(path).read().splitlines()
        assert content[0] == "a,b"
        assert len(content) == 3

    def test_series_to_rows(self):
        series = {"s1": [{"x": 1}], "s2": [{"x": 2}, {"x": 3}]}
        rows = report.series_to_rows(series)
        assert len(rows) == 3
        assert rows[0]["series"] == "s1"
