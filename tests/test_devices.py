"""Tests for photonic device models."""

import math

import numpy as np
import pytest

from repro.photonics.devices import (
    BAR_THETA,
    CROSS_THETA,
    SPLIT_THETA,
    MicroringResonator,
    MZIState,
    Photodiode,
    Waveguide,
    attenuator_theta,
    attenuator_transmission,
    is_bar,
    is_cross,
    mzi_insertion_loss_db,
    mzi_transfer,
    mzi_transfers,
    splitter_tree_loss_db,
)


class TestMZITransfer:
    def test_is_unitary_for_arbitrary_phases(self):
        for theta in (0.0, 0.3, math.pi / 2, 2.0, math.pi):
            for phi in (0.0, 1.0, math.pi, 5.0):
                t = mzi_transfer(theta, phi)
                assert np.allclose(t.conj().T @ t, np.eye(2), atol=1e-12)

    def test_cross_state_swaps_ports(self):
        t = mzi_transfer(CROSS_THETA)
        power = np.abs(t) ** 2
        assert power[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert power[1, 0] == pytest.approx(1.0)
        assert power[0, 1] == pytest.approx(1.0)

    def test_bar_state_keeps_ports(self):
        t = mzi_transfer(BAR_THETA)
        power = np.abs(t) ** 2
        assert power[0, 0] == pytest.approx(1.0)
        assert power[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_split_state_is_50_50(self):
        t = mzi_transfer(SPLIT_THETA)
        power = np.abs(t) ** 2
        assert power[0, 0] == pytest.approx(0.5)
        assert power[1, 0] == pytest.approx(0.5)

    def test_phi_only_adds_phase_not_power(self):
        p0 = np.abs(mzi_transfer(1.0, 0.0)) ** 2
        p1 = np.abs(mzi_transfer(1.0, 2.2)) ** 2
        assert np.allclose(p0, p1)

    def test_matches_paper_equation_1(self):
        theta, phi = 1.1, 0.7
        half = theta / 2
        expected = 1j * np.exp(-1j * half) * np.array(
            [[np.exp(1j * phi) * np.sin(half), np.cos(half)],
             [np.exp(1j * phi) * np.cos(half), -np.sin(half)]])
        assert np.allclose(mzi_transfer(theta, phi), expected)


class TestStackedTransfers:
    """``mzi_transfers`` equals stacked ``mzi_transfer`` byte for byte."""

    @staticmethod
    def assert_bytes_equal(theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        reference = np.stack([mzi_transfer(t, p)
                              for t, p in zip(theta.tolist(), phi.tolist())])
        stacked = mzi_transfers(theta, phi)
        assert stacked.shape == (len(theta), 2, 2)
        assert stacked.tobytes() == reference.tobytes()

    def test_random_phases(self):
        rng = np.random.default_rng(2024)
        self.assert_bytes_equal(rng.uniform(0.0, math.pi, 5000),
                                rng.uniform(-4 * math.pi, 4 * math.pi, 5000))

    @pytest.mark.parametrize("m", [1, 2, 3, 28])
    def test_small_batches(self, m):
        # Mesh-sized stacks take numpy's short-array paths.
        rng = np.random.default_rng(m)
        self.assert_bytes_equal(rng.uniform(0.0, math.pi, m),
                                rng.uniform(-math.pi, 3 * math.pi, m))

    def test_edges(self):
        thetas = [0.0, -0.0, math.pi / 2, math.pi, CROSS_THETA, BAR_THETA,
                  SPLIT_THETA, np.nextafter(0.0, 1.0),
                  np.nextafter(math.pi, 0.0), 1e-300]
        phis = [0.0, -0.0, math.pi / 2, math.pi, 2 * math.pi, -math.pi,
                -1e-9, 7.0, 100.0, -100.0, 3 * math.pi]
        theta, phi = np.meshgrid(thetas, phis)
        self.assert_bytes_equal(theta.ravel(), phi.ravel())

    def test_clipped_range(self):
        # The physical clip bounds calibration applies before Eq. 1.
        raw = np.linspace(-1.0, math.pi + 1.0, 41)
        self.assert_bytes_equal(np.clip(raw, 0.0, math.pi), raw)

    def test_empty(self):
        assert mzi_transfers(np.zeros(0), np.zeros(0)).shape == (0, 2, 2)


class TestMZIState:
    def test_splitting_ratio_endpoints(self):
        assert MZIState(0, CROSS_THETA).splitting_ratio == pytest.approx(0.0)
        assert MZIState(0, BAR_THETA).splitting_ratio == pytest.approx(1.0)
        assert MZIState(0, SPLIT_THETA).splitting_ratio == pytest.approx(0.5)

    def test_with_phases_preserves_position(self):
        s = MZIState(3, 0.1, 0.2, column=5)
        s2 = s.with_phases(1.0, 2.0)
        assert (s2.top_mode, s2.column) == (3, 5)
        assert (s2.theta, s2.phi) == (1.0, 2.0)

    def test_state_predicates(self):
        assert is_cross(CROSS_THETA)
        assert is_bar(BAR_THETA)
        assert not is_cross(BAR_THETA)
        assert not is_bar(SPLIT_THETA)

    def test_transfer_property_matches_function(self):
        s = MZIState(0, 0.8, 0.4)
        assert np.allclose(s.transfer, mzi_transfer(0.8, 0.4))


class TestAttenuator:
    def test_full_transmission_at_pi(self):
        assert attenuator_transmission(math.pi) == pytest.approx(1.0)

    def test_blocked_at_zero(self):
        assert attenuator_transmission(0.0) == pytest.approx(0.0)

    def test_half_transmission_at_split(self):
        assert attenuator_transmission(SPLIT_THETA) == pytest.approx(0.5)

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_theta_roundtrip(self, t):
        assert attenuator_transmission(attenuator_theta(t)) == pytest.approx(t)

    def test_theta_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            attenuator_theta(1.5)
        with pytest.raises(ValueError):
            attenuator_theta(-0.1)


class TestWaveguide:
    def test_loss_combines_straight_and_bent(self):
        wg = Waveguide(straight_cm=2.0, bent_cm=0.5)
        assert wg.loss_db == pytest.approx(2.0 * 1.5 + 0.5 * 3.8)

    def test_zero_length_is_lossless(self):
        wg = Waveguide()
        assert wg.loss_db == 0.0
        assert wg.transmission == 1.0

    def test_transmission_matches_db(self):
        wg = Waveguide(straight_cm=1.0)
        assert wg.transmission == pytest.approx(10 ** (-1.5 / 10))


class TestMicroring:
    def test_thru_transmission_compounds(self):
        mrr = MicroringResonator()
        one = mrr.thru_transmission(1)
        ten = mrr.thru_transmission(10)
        assert ten == pytest.approx(one ** 10)

    def test_drop_loss_is_1db(self):
        mrr = MicroringResonator()
        assert mrr.drop_transmission() == pytest.approx(10 ** -0.1)

    def test_power_accounting(self):
        mrr = MicroringResonator()
        assert mrr.active_power_w() == pytest.approx(1.5e-3)
        assert mrr.static_power_w() == pytest.approx(1e-3)


class TestPhotodiode:
    def test_sensitivity_conversion(self):
        pd = Photodiode()
        assert pd.sensitivity_w == pytest.approx(1e-6)  # -30 dBm

    def test_photocurrent_includes_dark_current(self):
        pd = Photodiode()
        assert pd.photocurrent_a(0.0) == pytest.approx(25e-12)
        assert pd.photocurrent_a(1e-3) == pytest.approx(1e-3, rel=1e-6)

    def test_photocurrent_rejects_negative_power(self):
        with pytest.raises(ValueError):
            Photodiode().photocurrent_a(-1.0)

    def test_detects_at_sensitivity(self):
        pd = Photodiode()
        assert pd.detects(pd.sensitivity_w)
        assert not pd.detects(pd.sensitivity_w / 10)


class TestLossHelpers:
    def test_mzi_insertion_loss_default(self):
        assert mzi_insertion_loss_db() == pytest.approx(0.27)

    def test_splitter_tree_fanout_one_is_free(self):
        assert splitter_tree_loss_db(1) == 0.0

    def test_splitter_tree_doubles_per_stage(self):
        two = splitter_tree_loss_db(2)
        four = splitter_tree_loss_db(4)
        assert four == pytest.approx(2 * two)

    def test_splitter_tree_rejects_zero_fanout(self):
        with pytest.raises(ValueError):
            splitter_tree_loss_db(0)
