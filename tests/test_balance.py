import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgbeats.balance import (BalancePlan, _nearest_neighbors, apply_plan, smote,
                              undersample)
from ecgbeats.errors import ValidationError
from tests.helpers import min_segment_distance


class TestUndersample:
    def test_counts_reduced_to_target(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(13, 4))
        labels = np.array([0] * 10 + [2] * 3)
        out_rows, out_labels = undersample(rows, labels, {0: 5, 2: 10}, seed=1)
        counts = np.bincount(out_labels, minlength=3)
        assert counts.tolist() == [5, 0, 3]
        assert out_rows.shape == (8, 4)

    def test_targets_above_counts_identity(self):
        rows = np.arange(12.0).reshape(6, 2)
        labels = np.array([0, 0, 1, 1, 2, 2])
        out_rows, out_labels = undersample(rows, labels, {0: 99, 1: 99, 2: 99}, seed=0)
        assert np.array_equal(out_rows, rows)
        assert np.array_equal(out_labels, labels)

    def test_same_seed_same_output(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(50, 3))
        labels = rng.integers(0, 3, size=50)
        a = undersample(rows, labels, {0: 4, 1: 4, 2: 4}, seed=7)
        b = undersample(rows, labels, {0: 4, 1: 4, 2: 4}, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_relative_order_preserved(self):
        rows = np.arange(20.0)[:, None]
        labels = np.zeros(20, dtype=int)
        out_rows, _ = undersample(rows, labels, {0: 8}, seed=5)
        assert np.all(np.diff(out_rows[:, 0]) > 0)


class TestSmote:
    def test_two_point_collinearity(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = np.array([1, 1])
        out_rows, out_labels = smote(rows, labels, {1: 3}, k_neighbors=1, seed=4)
        assert np.bincount(out_labels, minlength=2)[1] == 3
        synth = out_rows[2]
        assert synth[0] == pytest.approx(synth[1])  # on the diagonal
        assert 0.0 <= synth[0] <= 1.0 and 0.0 <= synth[1] <= 1.0

    def test_default_scale_targets_reached_exactly(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(130, 8))
        labels = np.array([0] * 60 + [1] * 40 + [2] * 30)
        targets = {0: 300_000, 1: 100_000, 2: 100_000}
        _, out_labels = smote(rows, labels, targets, k_neighbors=5, seed=0)
        counts = np.bincount(out_labels)
        assert counts.tolist() == [300_000, 100_000, 100_000]

    def test_synthetics_lie_on_member_segments(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(30, 5))
        labels = np.array([0] * 18 + [1] * 12)
        out_rows, out_labels = smote(rows, labels, {0: 25, 1: 20}, k_neighbors=3, seed=9)
        for cls in (0, 1):
            members = rows[labels == cls]
            synthetics = out_rows[30:][out_labels[30:] == cls]
            for s in synthetics:
                assert min_segment_distance(s, members) < 1e-9

    def test_originals_retained(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(10, 3))
        labels = np.array([0] * 6 + [1] * 4)
        out_rows, _ = smote(rows, labels, {1: 9}, seed=0)
        assert np.array_equal(out_rows[:10], rows)

    def test_byte_identical_for_same_seed(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(40, 6))
        labels = np.array([0] * 25 + [1] * 15)
        a = smote(rows, labels, {0: 50, 1: 50}, k_neighbors=4, seed=123)
        b = smote(rows, labels, {0: 50, 1: 50}, k_neighbors=4, seed=123)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_singleton_class_needing_growth_names_class(self):
        rows = np.zeros((4, 2))
        labels = np.array([0, 0, 0, 2])
        with pytest.raises(ValidationError, match="class 2"):
            smote(rows, labels, {2: 5}, seed=0)

    def test_convex_hull_membership_in_1d(self):
        rows = np.array([[0.0], [2.0], [5.0]])
        labels = np.array([0, 0, 0])
        out_rows, _ = smote(rows, labels, {0: 50}, k_neighbors=2, seed=3)
        assert np.all(out_rows >= 0.0) and np.all(out_rows <= 5.0)


def argsort_nearest_neighbors(points, k):
    """The full stable-argsort neighbour search the partition replaced (oracle)."""
    m = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    d2[np.arange(m), np.arange(m)] = np.inf
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


class TestNearestNeighbors:
    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(2, 40), dim=st.integers(1, 4), k=st.integers(1, 8),
           copies=st.integers(1, 4), grid=st.sampled_from([1.0, 0.5, 0.25]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_stable_argsort_on_ties(self, m, dim, k, copies, grid, seed):
        rng = np.random.default_rng(seed)
        # few distinct points on a coarse grid, each repeated: many equal distances
        base = np.round(rng.uniform(-2, 2, size=(max(1, m // copies), dim)) / grid) * grid
        points = rng.permutation(np.repeat(base, copies, axis=0))
        k = min(k, points.shape[0] - 1)
        if k < 1:
            return
        got = _nearest_neighbors(points, k)
        assert np.array_equal(got, argsort_nearest_neighbors(points, k))

    def test_matches_oracle_on_continuous_points(self):
        points = np.random.default_rng(12).normal(size=(300, 76))
        assert np.array_equal(_nearest_neighbors(points, 5),
                              argsort_nearest_neighbors(points, 5))

    def test_all_points_equal_picks_lowest_indices(self):
        got = _nearest_neighbors(np.ones((6, 3)), 3)
        assert got.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3],
                                [0, 1, 2], [0, 1, 2], [0, 1, 2]]

    def test_non_finite_rows_rejected(self):
        rows = np.array([[0.0], [np.nan], [1.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            smote(rows, np.zeros(3, dtype=int), {0: 5}, k_neighbors=1, seed=0)


class TestApplyPlan:
    def test_undersample_then_smote_hits_targets(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(100, 4))
        labels = np.array([0] * 70 + [1] * 20 + [2] * 10)
        plan = BalancePlan(targets={0: 30, 1: 25, 2: 25}, k_neighbors=3, seed=11)
        out_rows, out_labels = apply_plan(rows, labels, plan)
        assert np.bincount(out_labels).tolist() == [30, 25, 25]
        assert out_rows.shape == (80, 4)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(60, 4))
        labels = np.array([0] * 40 + [1] * 12 + [2] * 8)
        plan = BalancePlan(targets={0: 20, 1: 15, 2: 15}, seed=2)
        a = apply_plan(rows, labels, plan)
        b = apply_plan(rows, labels, plan)
        assert a[0].tobytes() == b[0].tobytes()

    def test_plan_validation(self):
        with pytest.raises(ValidationError):
            BalancePlan(k_neighbors=0)
        with pytest.raises(ValidationError):
            BalancePlan(targets={0: 0})
