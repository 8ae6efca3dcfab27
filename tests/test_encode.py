import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecgbeats.encode import (IMAGE_SIZE, MtfConfig, encode_beat, gasf, mtf,
                             paa, quantile_bins, recurrence, transition_matrix)
from ecgbeats.errors import ValidationError

unit_series = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=64)


class TestPaa:
    def test_exact_halves(self):
        assert np.allclose(paa([1, 3, 5, 7], 2), [2.0, 6.0])

    def test_identity_when_m_equals_n(self):
        x = np.random.default_rng(0).normal(size=17)
        assert np.array_equal(paa(x, 17), x)

    def test_fractional_windows(self):
        # 3 -> 2: windows [0, 1.5) and [1.5, 3); sample 1 is split half-half
        out = paa([0.0, 1.0, 2.0], 2)
        assert np.allclose(out, [(0.0 * 1.0 + 1.0 * 0.5) / 1.5,
                                 (1.0 * 0.5 + 2.0 * 1.0) / 1.5])

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(ValidationError):
            paa([1.0, 2.0], 3)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=90),
           st.integers(1, 90))
    def test_mean_conserved(self, values, m):
        if m > len(values):
            m = len(values)
        x = np.asarray(values)
        assert abs(paa(x, m).mean() - x.mean()) < 1e-9


class TestGasf:
    def test_constant_one_gives_all_ones(self):
        assert np.allclose(gasf(np.ones(5)), 1.0)

    def test_three_point_example(self):
        # phi = [0, pi/2, pi] -> cos(phi_i + phi_j) by hand
        expected = np.array([[1.0, 0.0, -1.0],
                             [0.0, -1.0, 0.0],
                             [-1.0, 0.0, 1.0]])
        assert np.max(np.abs(gasf([1.0, 0.0, -1.0]) - expected)) < 1e-9

    def test_symmetry_exact_and_diagonal_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-1, 1, size=32)
            g = gasf(x)
            assert np.max(np.abs(g - g.T)) == 0.0
            assert np.max(np.abs(np.diag(g) - (2 * x * x - 1))) < 1e-9
            assert g.min() >= -1.0 - 1e-12 and g.max() <= 1.0 + 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            gasf([0.0, 1.5])

    def test_tiny_overshoot_clamped(self):
        g = gasf([1.0 + 5e-13, -1.0])
        assert np.isfinite(g).all()

    @given(unit_series)
    def test_matches_cosine_definition(self, values):
        x = np.asarray(values)
        phi = np.arccos(np.clip(x, -1, 1))
        expected = np.cos(phi[:, None] + phi[None, :])
        assert np.max(np.abs(gasf(x) - expected)) < 1e-9


class TestMtf:
    def test_alternating_series(self):
        x = [0, 1, 0, 1, 0, 1, 0, 1]
        bins = quantile_bins(x, 2)
        w = transition_matrix(bins, 2)
        assert np.allclose(w, [[0.0, 1.0], [1.0, 0.0]])
        m = mtf(x, MtfConfig(n_bins=2))
        expected = np.fromfunction(lambda i, j: (i + j) % 2, (8, 8))
        assert np.array_equal(m, expected)

    def test_constant_series_all_ones(self):
        assert np.allclose(mtf([0.5] * 8, MtfConfig(n_bins=4)), 1.0)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.normal(size=32)
            bins = quantile_bins(x, 8)
            w = transition_matrix(bins, 8)
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-9

    def test_field_values_drawn_from_w(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20)
        bins = quantile_bins(x, 5)
        w = transition_matrix(bins, 5)
        m = mtf(x, MtfConfig(n_bins=5))
        assert np.isin(m, w).all()
        assert m.min() >= 0.0 and m.max() <= 1.0

    def test_tie_goes_to_lower_bin(self):
        # series median (the 2-bin edge) is exactly 0.5 here; values equal to
        # the edge belong to the lower bin
        assert quantile_bins([0.0, 0.5, 1.0, 0.5], 2).tolist() == [0, 0, 1, 0]

    def test_n_bins_validation(self):
        with pytest.raises(ValidationError):
            MtfConfig(n_bins=1)
        with pytest.raises(ValidationError, match="n_bins"):
            MtfConfig(n_bins=IMAGE_SIZE + 1)
        assert MtfConfig(n_bins=IMAGE_SIZE).n_bins == IMAGE_SIZE
        with pytest.raises(ValidationError):
            mtf([0.0, 1.0], MtfConfig(n_bins=3))


class TestRecurrence:
    def test_three_point_example(self):
        expected = np.array([[0.0, 0.5, 1.0],
                             [0.5, 0.0, 0.5],
                             [1.0, 0.5, 0.0]])
        assert np.max(np.abs(recurrence([0.0, 0.5, 1.0]) - expected)) < 1e-9

    def test_constant_series_all_zero(self):
        assert np.array_equal(recurrence([2.0] * 6), np.zeros((6, 6)))

    def test_symmetry_and_zero_diagonal_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = recurrence(rng.normal(size=32))
            assert np.max(np.abs(r - r.T)) == 0.0
            assert np.all(np.diag(r) == 0.0)
            assert r.min() >= 0.0 and r.max() <= 1.0


class TestEncodeBeat:
    def test_channel_shapes(self):
        rng = np.random.default_rng(0)
        assert encode_beat(rng.uniform(-1, 1, 70)).shape == (3, IMAGE_SIZE, IMAGE_SIZE)
        assert encode_beat(rng.uniform(-1, 1, (5, 70))).shape == (5, 3, IMAGE_SIZE, IMAGE_SIZE)
        assert encode_beat(np.zeros((0, 70))).shape == (0, 3, IMAGE_SIZE, IMAGE_SIZE)

    def test_constant_beat_composition(self):
        gasf_, mtf_, rp = encode_beat(np.zeros(70))
        assert np.allclose(gasf_, -1.0)   # x=0 -> phi=pi/2 -> cos(pi) = -1
        assert np.allclose(mtf_, 1.0)
        assert np.array_equal(rp, np.zeros((IMAGE_SIZE, IMAGE_SIZE)))

    def test_deterministic_byte_for_byte(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 70)
        a = encode_beat(x.copy())
        b = encode_beat(x.copy())
        assert a.dtype == np.float64
        assert a.tobytes() == b.tobytes()

    def test_channel_order_in_stack(self):
        x = np.random.default_rng(8).uniform(-1, 1, 70)
        stacked = encode_beat(x)
        reduced = np.clip(paa(x, IMAGE_SIZE), -1.0, 1.0)
        assert np.array_equal(stacked[0], gasf(reduced))
        assert np.array_equal(stacked[1], mtf(reduced))
        assert np.array_equal(stacked[2], recurrence(reduced))

    def test_out_of_range_beat_in_batch_rejected(self):
        batch = np.zeros((4, 70))
        batch[2, 10] = 1.5
        with pytest.raises(ValidationError):
            encode_beat(batch)
