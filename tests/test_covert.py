"""Tests for the thermal covert channel (Sec. 2.1 motivation)."""

import pytest

from repro.attacks.covert import (
    CovertChannelResult,
    channel_capacity_sweep,
    run_covert_channel,
)
from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.module import Module, Placement


@pytest.fixture(scope="module")
def floorplan():
    mods = {
        "tx": Module("tx", 300, 300, power=2.0),
        "bg1": Module("bg1", 300, 300, power=0.3),
        "bg2": Module("bg2", 300, 300, power=0.3),
        "rx_host": Module("rx_host", 400, 400, power=0.4),
    }
    placements = {
        "tx": Placement(mods["tx"], 100, 100, die=0),
        "bg1": Placement(mods["bg1"], 600, 600, die=0),
        "bg2": Placement(mods["bg2"], 100, 600, die=0),
        "rx_host": Placement(mods["rx_host"], 100, 100, die=1),
    }
    return Floorplan3D(StackConfig.square(1000.0), placements)


class TestCovertChannel:
    def test_slow_bits_transmit_cleanly(self, floorplan):
        """Well below the thermal cutoff, the channel is essentially
        error-free — the Masti-style covert channel works."""
        tx = floorplan.placements["tx"]
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        result = run_covert_channel(
            floorplan, "tx", tx.center, receiver_die=0, bits=bits,
            bit_period_s=0.4, grid_n=12,
        )
        assert result.bit_error_rate <= 0.25
        assert result.bandwidth_bps == pytest.approx(2.5)

    def test_cross_die_reception(self, floorplan):
        """The receiver can sit on the other die (TSV/bond coupling)."""
        tx = floorplan.placements["tx"]
        bits = [1, 0, 1, 0, 1, 0]
        result = run_covert_channel(
            floorplan, "tx", tx.center, receiver_die=1, bits=bits,
            bit_period_s=0.4, grid_n=12,
        )
        assert result.bit_error_rate <= 0.35

    def test_fast_bits_degrade(self, floorplan):
        """The low-pass limitation (Sec. 2.1): raising the symbol rate
        past the thermal cutoff raises the error rate."""
        tx = floorplan.placements["tx"]
        results = channel_capacity_sweep(
            floorplan, "tx", tx.center, receiver_die=0,
            bit_periods_s=(0.4, 0.01), bits=12, grid_n=12, seed=1,
        )
        slow, fast = results
        assert fast.bit_error_rate >= slow.bit_error_rate

    def test_effective_bps_zero_at_chance(self):
        r = CovertChannelResult(0.1, [0, 1] * 8, [1, 0] * 8)
        assert r.effective_bps == 0.0

    def test_validation(self, floorplan):
        with pytest.raises(KeyError):
            run_covert_channel(floorplan, "nope", (0, 0), 0, [1])
        with pytest.raises(ValueError):
            run_covert_channel(floorplan, "tx", (0, 0), 0, [])
