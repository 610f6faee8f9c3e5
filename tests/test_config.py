"""Tests for the Table 1 / Table 2 configuration spine."""


import pytest

from repro.config import (
    DEFAULT_DEVICES,
    DEFAULT_SYSTEM,
    CacheConfig,
    CoreConfig,
    FlumenComputeConfig,
    SchedulerConfig,
    SystemConfig,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    watts_to_dbm,
)


class TestUnitConversions:
    def test_db_to_linear_3db_is_half(self):
        assert db_to_linear(3.0103) == pytest.approx(0.5, rel=1e-4)

    def test_db_to_linear_zero_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_linear_to_db_roundtrip(self):
        for loss in (0.1, 1.0, 3.0, 10.0, 25.5):
            assert linear_to_db(db_to_linear(loss)) == pytest.approx(loss)

    def test_linear_to_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-0.5)

    def test_dbm_to_watts_zero_dbm_is_1mw(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_dbm_watts_roundtrip(self):
        for dbm in (-30.0, -20.0, 0.0, 10.0):
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm)

    def test_watts_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)


class TestSystemConfig:
    def test_table1_core_parameters(self):
        cfg = DEFAULT_SYSTEM
        assert cfg.core.count == 64
        assert cfg.core.frequency_hz == pytest.approx(2.5e9)
        assert cfg.core.l1i_size_b == 32 * 1024
        assert cfg.core.l1d_size_b == 32 * 1024

    def test_table1_cache_parameters(self):
        cfg = DEFAULT_SYSTEM
        assert cfg.cache.l2_size_b == 512 * 1024
        assert cfg.cache.l3_size_b == 16 * 1024 * 1024
        assert cfg.cache.l3_concentration == 4

    def test_table1_link_parameters(self):
        cfg = DEFAULT_SYSTEM
        assert cfg.elec_link.energy_j_per_bit == pytest.approx(1.17e-12)
        assert cfg.elec_link.bandwidth_bps == pytest.approx(800e9)
        assert cfg.phot_link.energy_j_per_bit_64lambda == pytest.approx(0.703e-12)
        assert cfg.phot_link.bandwidth_bps == pytest.approx(640e9)

    def test_table1_flumen_compute_parameters(self):
        cfg = DEFAULT_SYSTEM
        assert cfg.compute.computation_wavelengths == 8
        assert cfg.compute.input_modulation_hz == pytest.approx(5e9)
        assert cfg.compute.mzim_switch_delay_s == pytest.approx(6e-9)
        assert cfg.compute.equivalent_precision_bits == 8

    def test_derived_chiplet_count(self):
        assert DEFAULT_SYSTEM.chiplets == 16

    def test_derived_mzim_ports_is_8x8(self):
        # Section 5.1: the 16-chiplet system uses an 8x8 MZIM.
        assert DEFAULT_SYSTEM.mzim_ports == 8

    def test_scheduler_defaults_match_section_34(self):
        s = DEFAULT_SYSTEM.scheduler
        assert s.tau_cycles == 100
        assert s.eta == pytest.approx(0.40)
        assert s.zeta == pytest.approx(0.50)

    def test_replace_returns_new_config(self):
        from repro.config import CoreConfig
        small = DEFAULT_SYSTEM.replace(core=CoreConfig(count=16))
        assert small.core.count == 16
        assert DEFAULT_SYSTEM.core.count == 64
        assert small.chiplets == 4

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_SYSTEM.core.count = 128  # type: ignore[misc]


class TestGeometryValidation:
    @pytest.mark.parametrize("config, field", [
        (CacheConfig, "l2_size_b"),
        (CacheConfig, "l3_size_b"),
        (CacheConfig, "line_size_b"),
        (CacheConfig, "l1_assoc"),
        (CacheConfig, "l2_assoc"),
        (CacheConfig, "l3_assoc"),
        (CoreConfig, "l1i_size_b"),
        (CoreConfig, "l1d_size_b"),
    ])
    @pytest.mark.parametrize("value", [0, -8])
    def test_non_positive_field_rejected(self, config, field, value):
        with pytest.raises(ValueError, match=f"{config.__name__}.{field}"):
            config(**{field: value})

    @pytest.mark.parametrize("field", ["l2_size_b", "l3_size_b"])
    def test_partial_set_rejected(self, field):
        # 1000 B is not a whole number of 8- or 16-way sets of 64 B lines.
        with pytest.raises(ValueError, match=f"CacheConfig.{field} 1000"):
            CacheConfig(**{field: 1000})

    def test_partial_l1_set_rejected_where_core_meets_cache(self):
        core = CoreConfig(l1d_size_b=1000)  # the ways live in CacheConfig
        with pytest.raises(ValueError, match="core.l1d_size_b 1000"):
            SystemConfig(core=core)
        # 32 KiB fills 8-way sets of 64 B lines, not 8-way sets of 8 KiB.
        with pytest.raises(ValueError, match="core.l1d_size_b"):
            DEFAULT_SYSTEM.replace(cache=CacheConfig(
                line_size_b=8192, l2_size_b=1 << 20, l3_size_b=1 << 24))

    def test_defaults_and_replace_still_build(self):
        assert DEFAULT_SYSTEM.replace(
            cache=CacheConfig(l2_size_b=256 * 1024)).cache.l2_size_b \
            == 256 * 1024


class TestAlgorithmOneValidation:
    @pytest.mark.parametrize("field, value", [
        ("tau_cycles", 0), ("tau_cycles", -5), ("tau_cycles", 0.5),
        ("eta", -0.1), ("eta", 1.5),
        ("zeta", 0.0), ("zeta", -0.2), ("zeta", 1.01),
    ])
    def test_out_of_range_scheduler_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"SchedulerConfig.{field}"):
            SchedulerConfig(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"tau_cycles": 1}, {"tau_cycles": 25}, {"eta": 0.0},
        {"eta": 1.0}, {"zeta": 1.0}, {"zeta": 1e-3},
    ])
    def test_range_endpoints_still_build(self, kwargs):
        assert SchedulerConfig(**kwargs)

    def test_sensitivity_sweep_values_build(self):
        # The Section 3.4 sweeps in benchmarks/bench_alg1_sensitivity.py.
        for tau in (25, 50, 100, 150, 200, 300):
            assert SchedulerConfig(tau_cycles=tau).tau_cycles == tau
        for eta in (0.1, 0.25, 0.4, 0.55, 0.7, 0.9):
            assert SchedulerConfig(eta=eta).eta == eta
        for zeta in (0.125, 0.25, 0.5, 1.0):
            assert SchedulerConfig(zeta=zeta).zeta == zeta

    @pytest.mark.parametrize("field", [
        "computation_wavelengths", "input_modulation_hz",
        "mzim_switch_delay_s", "comm_switch_delay_s",
        "equivalent_precision_bits"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_compute_field_rejected(self, field, value):
        with pytest.raises(ValueError,
                           match=f"FlumenComputeConfig.{field}"):
            FlumenComputeConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_packet_cap_rejected(self, value):
        with pytest.raises(ValueError,
                           match="SystemConfig.max_simulated_packets"):
            SystemConfig(max_simulated_packets=value)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="SchedulerConfig.zeta"):
            DEFAULT_SYSTEM.replace(scheduler=SchedulerConfig(zeta=2.0))
        assert DEFAULT_SYSTEM.replace(
            max_simulated_packets=1).max_simulated_packets == 1


class TestDeviceParams:
    def test_table2_losses(self):
        d = DEFAULT_DEVICES
        assert d.waveguide.straight_loss_db_per_cm == pytest.approx(1.5)
        assert d.waveguide.bent_loss_db_per_cm == pytest.approx(3.8)
        assert d.y_branch.loss_db == pytest.approx(0.3)
        assert d.mrr.thru_loss_db == pytest.approx(0.1)
        assert d.mrr.drop_loss_db == pytest.approx(1.0)
        assert d.mzi.phase_shifter_loss_db == pytest.approx(0.23)
        assert d.mzi.coupler_loss_db == pytest.approx(0.02)

    def test_table2_powers(self):
        d = DEFAULT_DEVICES
        assert d.mrr.modulation_power_w == pytest.approx(0.5e-3)
        assert d.mrr.thermal_tuning_power_w == pytest.approx(1e-3)
        assert d.mzi.phase_shifter_power_w == pytest.approx(1e-9)
        assert d.converter.adc_power_w == pytest.approx(29e-3)
        assert d.converter.dac_power_w == pytest.approx(50e-3)
        assert d.converter.tia_power_w == pytest.approx(295e-6)
        assert d.converter.serdes_power_w == pytest.approx(1.3e-3)
        assert d.laser.owpe == pytest.approx(0.2)
        assert d.laser.rin_db_per_hz == pytest.approx(-140.0)

    def test_mzi_insertion_loss_combines_couplers_and_shifter(self):
        d = DEFAULT_DEVICES
        assert d.mzi.insertion_loss_db == pytest.approx(0.23 + 2 * 0.02)

    def test_programming_times_match_section_41(self):
        d = DEFAULT_DEVICES
        assert d.mzi.comm_program_time_s == pytest.approx(1e-9)
        assert d.mzi.compute_program_time_s == pytest.approx(6e-9)
