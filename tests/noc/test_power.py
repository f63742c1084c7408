"""Unit tests for the energy model."""

import pytest

from repro.noc.dvfs import DVFS_LEVELS_DEFAULT, OperatingPoint
from repro.noc.power import EnergyBreakdown, PowerModel, PowerParameters

NOMINAL = DVFS_LEVELS_DEFAULT[0]
LOW = DVFS_LEVELS_DEFAULT[-1]


class TestPowerParameters:
    def test_rejects_negative_energies(self):
        with pytest.raises(ValueError):
            PowerParameters(buffer_write_pj=-1.0)

    def test_rejects_nonpositive_nominal_voltage(self):
        with pytest.raises(ValueError):
            PowerParameters(nominal_voltage=0.0)


class TestEnergyBreakdown:
    def test_totals(self):
        energy = EnergyBreakdown(buffer_pj=1.0, crossbar_pj=2.0, link_pj=3.0, leakage_pj=4.0)
        assert energy.dynamic_pj == pytest.approx(6.0)
        assert energy.total_pj == pytest.approx(10.0)

    def test_subtraction_gives_deltas(self):
        before = EnergyBreakdown(buffer_pj=1.0, leakage_pj=1.0)
        after = EnergyBreakdown(buffer_pj=3.0, crossbar_pj=2.0, leakage_pj=4.0)
        delta = after - before
        assert delta.buffer_pj == pytest.approx(2.0)
        assert delta.crossbar_pj == pytest.approx(2.0)
        assert delta.leakage_pj == pytest.approx(3.0)

    def test_copy_is_independent(self):
        original = EnergyBreakdown(buffer_pj=1.0)
        clone = original.copy()
        clone.buffer_pj += 5.0
        assert original.buffer_pj == pytest.approx(1.0)

    def test_as_dict_contains_totals(self):
        payload = EnergyBreakdown(link_pj=2.0).as_dict()
        assert payload["total_pj"] == pytest.approx(2.0)
        assert payload["dynamic_pj"] == pytest.approx(2.0)


class TestPowerModel:
    def test_events_accumulate_per_component(self):
        model = PowerModel()
        model.record_buffer_write(NOMINAL)
        model.record_buffer_read(NOMINAL)
        model.record_crossbar_traversal(NOMINAL)
        model.record_link_traversal(NOMINAL)
        params = model.parameters
        assert model.energy.buffer_pj == pytest.approx(
            params.buffer_write_pj + params.buffer_read_pj
        )
        assert model.energy.crossbar_pj == pytest.approx(params.crossbar_pj)
        assert model.energy.link_pj == pytest.approx(params.link_pj)

    def test_dynamic_energy_scales_with_voltage_squared(self):
        model = PowerModel()
        model.record_crossbar_traversal(NOMINAL)
        at_nominal = model.energy.crossbar_pj
        model.reset()
        model.record_crossbar_traversal(LOW)
        at_low = model.energy.crossbar_pj
        assert at_low == pytest.approx(at_nominal * LOW.voltage**2 / NOMINAL.voltage**2)

    def test_leakage_scales_linearly_with_voltage(self):
        model = PowerModel()
        model.record_router_leakage(NOMINAL)
        at_nominal = model.energy.leakage_pj
        model.reset()
        model.record_router_leakage(LOW)
        assert model.energy.leakage_pj == pytest.approx(
            at_nominal * LOW.voltage / NOMINAL.voltage
        )

    def test_multi_flit_events(self):
        model = PowerModel()
        model.record_link_traversal(NOMINAL, flits=5)
        assert model.energy.link_pj == pytest.approx(5 * model.parameters.link_pj)

    def test_snapshot_and_reset(self):
        model = PowerModel()
        model.record_buffer_write(NOMINAL)
        snapshot = model.snapshot()
        model.record_buffer_write(NOMINAL)
        delta = model.snapshot() - snapshot
        assert delta.buffer_pj == pytest.approx(model.parameters.buffer_write_pj)
        model.reset()
        assert model.energy.total_pj == 0.0

    def test_custom_operating_point_above_nominal(self):
        boost = OperatingPoint(name="boost", voltage=1.2, frequency_ghz=2.4, divider=1)
        model = PowerModel()
        model.record_crossbar_traversal(boost)
        assert model.energy.crossbar_pj > model.parameters.crossbar_pj


class TestBatchedAccrual:
    def test_accrue_matches_per_cycle_record_calls_bitwise(self):
        reference = PowerModel()
        increments = [
            reference.router_leakage_increment(NOMINAL),
            reference.link_leakage_increment(LOW, links=3),
            reference.router_leakage_increment(LOW),
        ]
        for _ in range(7):
            reference.record_router_leakage(NOMINAL)
            reference.record_link_leakage(LOW, links=3)
            reference.record_router_leakage(LOW)
        batched = PowerModel()
        batched.accrue_leakage_increments(increments, cycles=7)
        assert batched.energy.leakage_pj == reference.energy.leakage_pj

    def test_flit_energies_match_individual_events_bitwise(self):
        reference = PowerModel()
        reference.record_buffer_read(LOW)
        reference.record_crossbar_traversal(LOW)
        reference.record_link_traversal(LOW)
        read, crossbar, link, write = reference.flit_energies(LOW)
        assert (read, crossbar, link) == (
            reference.energy.buffer_pj,
            reference.energy.crossbar_pj,
            reference.energy.link_pj,
        )
        written = PowerModel()
        written.record_buffer_write(LOW)
        assert write == written.energy.buffer_pj

    def test_dynamic_energy_tracks_operating_point_changes(self):
        model = PowerModel()
        model.record_buffer_write(NOMINAL)
        at_nominal = model.energy.buffer_pj
        model.record_buffer_write(LOW)
        assert model.energy.buffer_pj - at_nominal < at_nominal  # lower V^2 scale
