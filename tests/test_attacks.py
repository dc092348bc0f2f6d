"""Tests for the sensor model, device facade, and the two TSC attacks."""

import numpy as np
import pytest

from repro.attacks.characterization import characterize
from repro.attacks import device
from repro.attacks.device import InputActivityModel, ThermalDevice
from repro.attacks.localization import localize_module, monitor_module
from repro.attacks.sensors import SensorGrid
from repro.layout.die import StackConfig
from repro.layout.floorplan import Floorplan3D
from repro.layout.grid import GridSpec
from repro.layout.module import Module, Placement


def _device(seed=0, sensors=None):
    mods = {}
    placements = {}
    rng = np.random.default_rng(seed)
    # 3x3 grid of modules on die 0, 2 on die 1
    for j in range(3):
        for i in range(3):
            name = f"m{j}{i}"
            mods[name] = Module(name, 300, 300, power=float(rng.uniform(0.2, 1.0)))
            placements[name] = Placement(mods[name], 40 + i * 310, 40 + j * 310, die=0)
    for k in range(2):
        name = f"t{k}"
        mods[name] = Module(name, 450, 900, power=1.0)
        placements[name] = Placement(mods[name], 30 + k * 480, 50, die=1)
    stack = StackConfig.square(1000.0)
    fp = Floorplan3D(stack, placements)
    grid = GridSpec(stack.outline, 16, 16)
    model = InputActivityModel(sorted(placements), num_bits=9, fanin=1, seed=3)
    return ThermalDevice(fp, grid, activity_model=model, sensors=sensors)


class TestDeviceSharedTsvPlumbing:
    def test_upper_interface_tsvs_reach_the_solver(self):
        """A 3-die device must see TSVs of *every* adjacent interface;
        building from the (0, 1) density alone silently dropped the
        (1, 2) heat pipes (ROADMAP follow-up from PR 2)."""
        from repro.layout.geometry import Rect
        from repro.layout.tsv import TSVIsland, TSVKind

        mods = {
            "hot": Module("hot", 400, 400, power=2.0),
            "mid": Module("mid", 400, 400, power=0.5),
            "top": Module("top", 400, 400, power=0.5),
        }
        placements = {
            "hot": Placement(mods["hot"], 300, 300, die=0),
            "mid": Placement(mods["mid"], 300, 300, die=1),
            "top": Placement(mods["top"], 300, 300, die=2),
        }
        stack = StackConfig.square(1000.0, num_dies=3)
        grid = GridSpec(stack.outline, 12, 12)
        model = InputActivityModel(sorted(placements), num_bits=3, fanin=1, seed=0)
        bare = Floorplan3D(stack, dict(placements))
        piped = Floorplan3D(stack, dict(placements))
        piped.tsvs = TSVIsland(
            Rect(250, 250, 500, 500), 1, 2,
            kind=TSVKind.THERMAL, diameter=20.0, keepout=5.0,
        ).vias()
        pattern = [1, 1, 1]
        (maps_bare,) = ThermalDevice(bare, grid, activity_model=model).respond_many([pattern])
        (maps_piped,) = ThermalDevice(piped, grid, activity_model=model).respond_many([pattern])
        # the (1, 2) heat pipes must change the upper dies' temperatures
        assert not np.allclose(maps_bare[1], maps_piped[1])
        assert not np.allclose(maps_bare[2], maps_piped[2])


class TestSensorGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensorGrid(rows=1)
        with pytest.raises(ValueError):
            SensorGrid(noise_sigma=-1)

    def test_ideal_reads_exactly(self):
        rng = np.random.default_rng(0)
        tmap = rng.random((8, 8))
        s = SensorGrid.ideal((8, 8))
        assert np.allclose(s.estimate_map(tmap), tmap)

    def test_noise_applied(self):
        tmap = np.zeros((8, 8))
        s = SensorGrid(rows=4, cols=4, noise_sigma=0.5, seed=1)
        readings = s.read(tmap)
        assert readings.shape == (4, 4)
        assert readings.std() > 0

    def test_interpolation_shape_and_range(self):
        tmap = np.outer(np.linspace(0, 1, 16), np.ones(16))
        s = SensorGrid(rows=4, cols=4, noise_sigma=0.0)
        est = s.estimate_map(tmap)
        assert est.shape == (16, 16)
        # a linear ramp is reconstructed well by bilinear interpolation
        assert np.abs(est - tmap).max() < 0.05


class TestActivityModel:
    def test_pattern_length_checked(self):
        m = InputActivityModel(["a", "b"], num_bits=4)
        with pytest.raises(ValueError):
            m.activity([1, 0])

    def test_idle_vs_active(self, monkeypatch):
        monkeypatch.setattr(device, "IDLE_ACTIVITY", 0.3)
        monkeypatch.setattr(device, "BIT_SWING", 1.0)
        m = InputActivityModel(["a", "b", "c"], num_bits=2, fanin=1, seed=0)
        act_off = m.activity([0, 0])
        assert all(v == 0.3 for v in act_off.values())
        act_on = m.activity([1, 1])
        assert any(v >= 1.3 - 1e-9 for v in act_on.values())

    def test_bit_drives_deterministic(self):
        m1 = InputActivityModel(["a", "b", "c"], num_bits=3, seed=5)
        m2 = InputActivityModel(["a", "b", "c"], num_bits=3, seed=5)
        assert [m1.bit_drives(i) for i in range(3)] == [m2.bit_drives(i) for i in range(3)]


class TestDevice:
    def test_respond_shapes(self):
        dev = _device()
        (maps,) = dev.respond_many([[0] * dev.num_bits])
        assert len(maps) == 2
        assert maps[0].shape == dev.grid.shape

    def test_more_activity_more_heat(self):
        dev = _device()
        cold, hot = (maps[0] for maps in dev.respond_many([[0] * dev.num_bits, [1] * dev.num_bits]))
        assert hot.mean() > cold.mean()

    def test_observe_uses_sensors(self):
        dev = _device(sensors=SensorGrid(rows=4, cols=4, noise_sigma=0.0, seed=0))
        obs = dev.observe_many([[1] * dev.num_bits], die=0)
        assert obs.shape == (1, *dev.grid.shape)

    def test_observe_many_matches_batches_of_one(self):
        """One batched observation reads the noisy sensors in pattern
        order and solves every column to the same bits as a batch of
        one, so it equals observing the patterns one at a time through a
        device whose sensors have the same seed."""
        rng = np.random.default_rng(4)
        patterns = [tuple(int(b) for b in rng.integers(0, 2, 9)) for _ in range(7)]
        batched = _device(sensors=SensorGrid(rows=6, cols=6, noise_sigma=0.3, seed=2))
        single = _device(sensors=SensorGrid(rows=6, cols=6, noise_sigma=0.3, seed=2))
        for die in (0, 1):
            many = batched.observe_many(patterns, die=die)
            ones = np.concatenate([single.observe_many([p], die=die) for p in patterns])
            assert many.tobytes() == ones.tobytes()


class TestCharacterization:
    def test_attack_learns_device(self):
        """With ideal sensors the linear thermal model must predict well —
        the device IS linear in the activity factors."""
        dev = _device()
        result = characterize(dev, train_patterns=40, test_patterns=12, seed=1)
        assert result.r2 > 0.75

    def test_noisy_sensors_degrade_model(self):
        ideal = characterize(_device(), train_patterns=30, test_patterns=10, seed=2)
        noisy_dev = _device(sensors=SensorGrid(rows=16, cols=16, noise_sigma=2.0, seed=3))
        noisy = characterize(noisy_dev, train_patterns=30, test_patterns=10, seed=2)
        assert noisy.r2 < ideal.r2

    def test_r2_map_shape(self):
        dev = _device()
        result = characterize(dev, train_patterns=20, test_patterns=8)
        assert result.r2_map.shape == dev.grid.shape



def _driven_target(dev, die=0):
    """A module on the given die that some input bit actually drives."""
    for bit in range(dev.num_bits):
        for name in dev.activity_model.bit_drives(bit):
            if dev.floorplan.placements[name].die == die:
                return name
    raise AssertionError("no driven module on die")

class TestLocalization:
    def test_localizes_known_module(self):
        dev = _device()
        target = _driven_target(dev, die=0)
        result = localize_module(dev, target, trials=4, seed=1)
        assert result.normalized_error < 0.35
        assert result.diff_map.shape == dev.grid.shape

    def test_unknown_module_rejected(self):
        dev = _device()
        with pytest.raises(KeyError):
            localize_module(dev, "nope")

    def test_monitoring_reads_activity(self):
        dev = _device()
        target = _driven_target(dev, die=0)
        loc = localize_module(dev, target, trials=4, seed=2)
        fidelity = monitor_module(dev, target, loc.estimate_xy, steps=16, seed=3)
        assert 0.0 <= fidelity <= 1.0
        assert fidelity > 0.5  # ideal sensors + linear device: clearly readable

    def test_monitoring_far_away_weaker(self):
        dev = _device()
        target = _driven_target(dev, die=0)
        loc = localize_module(dev, target, trials=4, seed=4)
        near = monitor_module(dev, target, loc.estimate_xy, steps=16, seed=5)
        far = monitor_module(dev, target, (950.0, 950.0), steps=16, seed=5)
        assert near >= far - 0.15
