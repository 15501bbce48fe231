"""Metric correctness: hand-computed fixtures plus the dual-route adjusted
rand check (pair-count formula vs Hubert-Arabie contingency formula)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiseg.errors import DegenerateDataError, ParameterError
from hsiseg.metrics import (_supervised_scores, adjusted_rand_from_table, ars,
                            contingency, evaluate_labelings, nmi, pair_counts)


class TestContingency:
    def test_identical_labelings_diagonal(self):
        labels = np.array([0, 0, 1, 1, 2])
        table = contingency(labels, labels)
        np.testing.assert_array_equal(table.counts, np.diag([2, 2, 1]))

    def test_single_row_when_a_constant(self):
        table = contingency([1, 1, 1, 1], [1, 1, 2, 2])
        assert table.counts.shape == (1, 2)
        np.testing.assert_array_equal(table.counts, [[2, 2]])

    def test_hand_counted_uniform_table(self):
        table = contingency([1, 1, 2, 2], [1, 2, 1, 2])
        np.testing.assert_array_equal(table.counts, np.ones((2, 2), dtype=int))

    def test_mask_excludes_background(self):
        pred = np.array([1, 1, 2, 2])
        truth = np.array([0, 1, 0, 2])
        table = contingency(pred, truth, mask=truth > 0)
        assert table.n == 2

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            contingency([1, 2], [1, 2, 3])

    def test_transposed_raster_rejected(self):
        """Rasters pair up by position, not by flat index: a (2, 3) map is
        not scored against its (3, 2) transpose."""
        a = np.array([[1, 1, 2], [2, 3, 3]])
        with pytest.raises(ParameterError):
            evaluate_labelings(a, a.T)

    def test_float_labels_rejected(self):
        with pytest.raises(ParameterError):
            contingency([1.7, 1.2], [1, 2])

    def test_empty_after_mask(self):
        with pytest.raises(DegenerateDataError):
            contingency([1, 2], [0, 0], mask=np.array([False, False]))


class TestNmi:
    def test_identical_labelings(self):
        table = contingency([1, 1, 2, 2, 3], [5, 5, 7, 7, 9])
        assert nmi(table) == 1.0

    def test_constant_vs_balanced_is_zero(self):
        table = contingency([1, 1, 1, 1], [1, 1, 2, 2])
        assert nmi(table) == 0.0

    def test_independent_labelings_zero(self):
        """Joint equals product of marginals, so mutual information is 0."""
        table = contingency([1, 1, 2, 2], [1, 2, 1, 2])
        assert nmi(table) == 0.0

    def test_both_constant_is_one(self):
        assert nmi(contingency([3, 3], [8, 8])) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=60)
        b = rng.integers(0, 3, size=60)
        assert nmi(contingency(a, b)) == pytest.approx(nmi(contingency(b, a)), abs=1e-15)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.integers(0, 5, size=40)
            b = rng.integers(0, 5, size=40)
            value = nmi(contingency(a, b))
            assert 0.0 <= value <= 1.0 + 1e-12


class TestPairCounts:
    def test_hand_counts(self):
        table = contingency([1, 1, 2, 2], [1, 2, 1, 2])
        pc = pair_counts(table)
        assert (pc.a, pc.b, pc.c, pc.d) == (0, 2, 2, 2)

    def test_total_is_n_choose_2(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 5, size=n)
            pc = pair_counts(contingency(a, b))
            assert pc.a + pc.b + pc.c + pc.d == n * (n - 1) // 2


class TestArs:
    def test_identical_labelings(self):
        table = contingency([1, 1, 2, 2], [7, 7, 9, 9])
        assert ars(pair_counts(table)) == 1.0

    def test_crossed_pairs_fixture(self):
        """A=[1,1,2,2], B=[1,2,1,2]: a=0, b=c=d=2 -> both routes give -1/2."""
        table = contingency([1, 1, 2, 2], [1, 2, 1, 2])
        value = ars(pair_counts(table))
        assert value == pytest.approx(-0.5, abs=1e-15)
        assert adjusted_rand_from_table(table) == pytest.approx(-0.5, abs=1e-15)

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateDataError):
            ars(pair_counts(contingency([1], [1])))

    def test_pair_formula_equals_contingency_oracle(self):
        """The pair-count evaluation must match Hubert-Arabie exactly."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            a = rng.integers(0, rng.integers(2, 7), size=n)
            b = rng.integers(0, rng.integers(2, 7), size=n)
            table = contingency(a, b)
            direct = ars(pair_counts(table))
            oracle = adjusted_rand_from_table(table)
            assert direct == pytest.approx(oracle, abs=1e-12)

    def test_large_n_no_overflow(self):
        """Pair products exceed int64 on scene-sized inputs; arithmetic must survive."""
        n = 4_000_000
        half = n // 2
        a = np.repeat([1, 2], half)
        b = np.repeat([1, 2], half)
        table = contingency(a, b)
        assert ars(pair_counts(table)) == 1.0


class TestPermutationInvariance:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_relabeling_changes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 4, size=30)
        perm = rng.permutation(4)
        table = contingency(a, b)
        permuted = contingency(perm[a], b)
        assert nmi(table) == pytest.approx(nmi(permuted), abs=1e-12)
        assert ars(pair_counts(table)) == pytest.approx(ars(pair_counts(permuted)), abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 5, size=30)
        forward = ars(pair_counts(contingency(a, b)))
        backward = ars(pair_counts(contingency(b, a)))
        assert forward == pytest.approx(backward, abs=1e-12)


class TestSupervisedScores:
    """OA/AA/kappa of square tables: rows predicted, columns true classes."""

    def test_perfect_prediction(self):
        oa, aa, kappa = _supervised_scores(np.diag([2, 2, 1]))
        assert (oa, aa, kappa) == (1.0, 1.0, 1.0)

    def test_constant_prediction_kappa_zero(self):
        """p_o = p_e = 0.5 for a constant guess on balanced classes."""
        oa, aa, kappa = _supervised_scores(np.array([[2, 2], [0, 0]]))
        assert oa == 0.5
        assert kappa == 0.0

    def test_hand_evaluated_two_class_table(self):
        """[[3,1],[1,3]] gives OA 0.75 and kappa 0.5 (p_e = 0.5)."""
        oa, aa, kappa = _supervised_scores(np.array([[3, 1], [1, 3]]))
        assert oa == pytest.approx(0.75)
        assert aa == pytest.approx(0.75)
        assert kappa == pytest.approx(0.5)

    def test_kappa_one_iff_diagonal(self):
        assert _supervised_scores(np.eye(3, dtype=np.int64))[2] == 1.0
        off = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 0]])
        assert _supervised_scores(off)[2] < 1.0


class TestMajorityMapping:
    def test_clusters_map_to_dominant_class(self):
        """OA/AA/kappa are those of the table with each cluster's row joined
        to the class it overlaps most.  In the second case clusters 1 and 2
        tie between classes 1 and 2, so both take the smaller id."""
        cases = [
            ([10, 10, 10, 20, 20, 20], [1, 1, 2, 2, 2, 2], [[2, 1], [0, 3]],
             (5 / 6, (1 + 3 / 4) / 2, 2 / 3)),
            ([1, 1, 2, 2, 3], [1, 2, 1, 2, 2], [[2, 2], [0, 1]],
             (3 / 5, (1 + 1 / 3) / 2, 2 / 7)),
        ]
        for pred, truth, mapped, expected in cases:
            report = evaluate_labelings(np.array(pred), np.array(truth))
            scores = _supervised_scores(np.array(mapped))
            assert (report["oa"], report["aa"], report["kappa"]) == scores
            assert scores == pytest.approx(expected)

    def test_report_contains_everything(self):
        pred = np.array([[1, 1], [2, 2]])
        truth = np.array([[1, 1], [0, 2]])
        report = evaluate_labelings(pred, truth)
        assert report["n"] == 3
        assert report["masked_background"] is True
        assert report["supervised_mapping"] == "majority_vote"
        assert set(report) >= {"nmi", "ars", "oa", "aa", "kappa",
                               "clusters_pred", "clusters_true"}

    def test_map_equals_truth_scores_one(self):
        truth = np.array([[1, 2, 3], [1, 2, 3]])
        report = evaluate_labelings(truth, truth)
        assert report["nmi"] == 1.0
        assert report["ars"] == 1.0
        assert report["kappa"] == 1.0
