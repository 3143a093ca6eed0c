"""Edge deployment: model export/import, on-device streaming inference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.edge import (
    DeviceSpec,
    EdgeDevice,
    bandwidth_savings,
    bundle_nbytes,
    export_model,
    import_model,
)
from repro.nn import Sequential
from repro.nn.layers import Conv1D, Dense, Flatten, MaxPool1D, ReLU


def trained_af_model(window=375, seed=0):
    """A small trained slow-vs-fast discriminator (AF proxy).

    375 samples = 10 s at 300 Hz downsampled by 8.
    """
    rng = np.random.default_rng(seed)
    model = Sequential(
        [
            Conv1D(1, 6, 7, rng),
            ReLU(),
            MaxPool1D(4),
            Flatten(),
            Dense(6 * ((window - 6) // 4), 12, rng),
            ReLU(),
            Dense(12, 2, rng),
        ]
    )
    t = np.arange(window)
    n = 300
    x = rng.standard_normal((n, 1, window)) * 0.3
    y = rng.integers(0, 2, n)
    # random phases, matching the arbitrary window alignment a
    # streaming device sees
    for i in range(n):
        period = 2.0 if y[i] == 1 else 9.0
        x[i, 0] += np.sin(t / period + rng.uniform(0, 2 * np.pi))
    # z-normalise per window, exactly as EdgeDevice.monitor does
    mu = x.mean(axis=2, keepdims=True)
    sd = x.std(axis=2, keepdims=True)
    x = (x - mu) / sd
    from repro.nn import SGD

    model.fit(x, y, epochs=6, batch_size=32, optimizer=SGD(0.03, 0.9))
    assert model.evaluate(x, y) > 0.9
    return model, (x, y)


@pytest.fixture(scope="module")
def model_and_data():
    return trained_af_model()


class TestExport:
    def test_roundtrip_preserves_predictions(self, model_and_data):
        model, (x, _) = model_and_data
        bundle = export_model(model)
        back = import_model(bundle)
        np.testing.assert_allclose(back.predict_proba(x[:8]), model.predict_proba(x[:8]))

    def test_bundle_format_guard(self):
        with pytest.raises(ValueError):
            import_model({"format": "onnx", "config": [], "weights": []})

    def test_bundle_size_accounting(self, model_and_data):
        model, _ = model_and_data
        bundle = export_model(model)
        expected = sum(w.nbytes for w in model.get_weights())
        assert bundle_nbytes(bundle) == expected


class TestEdgeDevice:
    def make_stream(self, seed=1, af=True, seconds=120):
        """A long 'wearable' stream: slow oscillation (normal) with an
        AF-like fast segment in the middle when af=True."""
        rng = np.random.default_rng(seed)
        fs = 300.0
        n = int(seconds * fs)
        t_full = np.arange(n)
        sig = np.sin(t_full / (9.0 * 8)) + rng.standard_normal(n) * 0.3
        if af:
            third = n // 3
            seg = slice(third, 2 * third)
            sig[seg] = np.sin(t_full[seg] / (2.0 * 8)) + rng.standard_normal(third) * 0.3
        return sig

    def test_monitor_reports_windows(self, model_and_data):
        model, _ = model_and_data
        device = EdgeDevice(export_model(model))
        report = device.monitor(self.make_stream(), window_s=10.0)
        assert report.n_windows == 12
        assert report.compute_s > 0
        assert 0 <= report.escalation_rate <= 1

    def test_af_segment_escalates_more(self, model_and_data):
        model, _ = model_and_data
        device = EdgeDevice(export_model(model))
        af_report = device.monitor(self.make_stream(af=True), window_s=10.0)
        quiet_report = device.monitor(self.make_stream(af=False), window_s=10.0)
        assert af_report.n_escalated > quiet_report.n_escalated

    def test_bandwidth_savings(self, model_and_data):
        model, _ = model_and_data
        device = EdgeDevice(export_model(model))
        report = device.monitor(self.make_stream(af=False), window_s=10.0)
        savings = bandwidth_savings(report)
        # quiet stream: almost everything stays on-device
        assert savings > 0.5

    def test_energy_and_battery(self, model_and_data):
        model, _ = model_and_data
        spec = DeviceSpec(battery_j=10.0)
        device = EdgeDevice(export_model(model), spec)
        report = device.monitor(self.make_stream(), window_s=10.0)
        assert report.energy_j > 0
        assert report.battery_fraction_used == pytest.approx(report.energy_j / 10.0)

    def test_slower_device_higher_latency(self, model_and_data):
        model, _ = model_and_data
        fast = EdgeDevice(export_model(model), DeviceSpec(speed=1.0))
        slow = EdgeDevice(export_model(model), DeviceSpec(speed=0.01))
        assert slow.window_latency() > fast.window_latency()

    def test_validation(self, model_and_data):
        model, _ = model_and_data
        device = EdgeDevice(export_model(model))
        with pytest.raises(ValueError):
            device.monitor(np.zeros(100), window_s=10.0)  # too short
        with pytest.raises(ValueError):
            device.monitor(np.zeros(10000), window_s=0.0)

    def test_threshold_controls_escalation(self, model_and_data):
        model, _ = model_and_data
        device = EdgeDevice(export_model(model))
        stream = self.make_stream()
        lax = device.monitor(stream, threshold=0.1)
        strict = device.monitor(stream, threshold=0.9)
        assert lax.n_escalated >= strict.n_escalated
