import numpy as np
import pytest

from csipred.errors import ContractViolation
from csipred.synthchan import (FadingConfig, ar_spectral_radius, generate_ar,
                               generate_fading, generate_line,
                               generate_sinusoid)

# Frozen: f_d = v * f_c / c = (5/3.6) * 2.18e9 / 2.998e8
DOPPLER_5KMH_2P18GHZ = 10.099325476243422


class TestFadingConfig:
    def test_doppler_frozen_value(self):
        cfg = FadingConfig(speed_mps=5.0 / 3.6)
        assert cfg.doppler_hz == pytest.approx(DOPPLER_5KMH_2P18GHZ, rel=1e-12)
        assert cfg.doppler_hz == pytest.approx(10.1, rel=1e-2)

    def test_doppler_scales_linearly_with_speed(self):
        a = FadingConfig(speed_mps=1.0).doppler_hz
        b = FadingConfig(speed_mps=2.0).doppler_hz
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_invalid_fields(self):
        with pytest.raises(ContractViolation):
            FadingConfig(path_count=0)
        with pytest.raises(ContractViolation):
            FadingConfig(speed_mps=-1.0)


class TestFading:
    def test_shape_and_determinism(self):
        cfg = FadingConfig(sample_count=500, antenna_count=3, seed=4)
        a = generate_fading(cfg)
        b = generate_fading(cfg)
        assert a.values.shape == (3, 500)
        assert np.array_equal(a.values, b.values)
        c = generate_fading(FadingConfig(sample_count=500, antenna_count=3,
                                         seed=5))
        assert not np.array_equal(a.values, c.values)

    def test_unit_mean_power(self):
        cfg = FadingConfig(sample_count=20000, seed=0)
        series = generate_fading(cfg)
        power = float(np.mean(np.abs(series.values) ** 2))
        assert 0.5 < power < 1.5

    def test_single_path_is_pure_tone(self):
        # One path at angle 0 with zero phase: h_t = exp(j*2*pi*f_d*t*dt),
        # so the DFT magnitude peaks exactly at the Doppler frequency bin.
        cfg = FadingConfig(path_count=1, sample_count=20000, seed=0)
        series = generate_fading(cfg, angles=[0.0], phases=[0.0])
        h = series.values[0]
        assert np.allclose(np.abs(h), 1.0, atol=1e-12)
        spec = np.abs(np.fft.fft(h))
        peak = int(np.argmax(spec))
        expected = round(cfg.doppler_hz * cfg.sample_count * cfg.sample_interval)
        assert peak == expected

    def test_spectrum_bandlimited_to_doppler(self):
        cfg = FadingConfig(sample_count=20000, seed=1)
        h = generate_fading(cfg).values[0]
        spec = np.abs(np.fft.fft(h)) ** 2
        freqs = np.fft.fftfreq(cfg.sample_count, cfg.sample_interval)
        inside = np.abs(freqs) <= 1.2 * cfg.doppler_hz
        assert spec[inside].sum() / spec.sum() > 0.99

    def test_override_length_checked(self):
        cfg = FadingConfig(path_count=4, sample_count=10)
        with pytest.raises(ContractViolation):
            generate_fading(cfg, angles=[0.0])
        with pytest.raises(ContractViolation, match="phases"):
            generate_fading(cfg, phases=[0.0] * 3)


class TestAr:
    def test_spectral_radius_order_one(self):
        assert ar_spectral_radius([0.5]) == pytest.approx(0.5, abs=1e-12)
        assert ar_spectral_radius([-0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(ContractViolation):
            generate_ar([1.01], n=10)

    def test_matches_manual_recursion(self):
        theta = [0.5, -0.2]
        out = generate_ar(theta, q=0.1, noise_sigma=0.0, n=5, burn_in=0,
                          init=[1.0, 2.0])  # z_{-2}=1, z_{-1}=2
        z = [1.0, 2.0]
        for _ in range(5):
            z.append(0.1 + 0.5 * z[-1] - 0.2 * z[-2])
        assert np.allclose(out, z[2:], atol=1e-12)

    def test_noise_free_stable_process_decays(self):
        out = generate_ar([0.9], noise_sigma=0.0, n=50, burn_in=0, init=[1.0])
        assert abs(out[-1]) < abs(out[0])
        assert np.all(np.abs(np.diff(np.abs(out))) > 0)

    def test_determinism(self):
        a = generate_ar([0.5, -0.2, 0.1], noise_sigma=0.1, n=100, seed=3)
        b = generate_ar([0.5, -0.2, 0.1], noise_sigma=0.1, n=100, seed=3)
        assert np.array_equal(a, b)


class TestDeterministicFixtures:
    def test_line(self):
        assert generate_line(2.0, 1.0, 4).tolist() == [1.0, 3.0, 5.0, 7.0]

    def test_sinusoid(self):
        y = generate_sinusoid(2.0, 8.0, 9)
        assert y[0] == 0.0
        assert y[2] == pytest.approx(2.0, abs=1e-12)  # quarter period
        assert y[8] == pytest.approx(0.0, abs=1e-12)  # full period
