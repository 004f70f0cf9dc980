"""Synthetic verification data.

A Monte-Carlo sum-of-sinusoids Rayleigh fading generator (random path angles
and phases, unit mean power) plus deterministic fixtures: lines, sinusoids,
piecewise lines, and AR processes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .datapipe import CsiSeries
from .errors import ContractViolation

SPEED_OF_LIGHT = 2.998e8


@dataclass
class FadingConfig:
    carrier_hz: float = DEFAULTS["carrier_hz"]
    speed_mps: float = DEFAULTS["speed_kmph"] / 3.6
    sample_interval: float = DEFAULTS["sample_interval"]
    path_count: int = DEFAULTS["path_count"]
    antenna_count: int = DEFAULTS["antenna_count"]
    sample_count: int = DEFAULTS["sample_count"]
    seed: int = DEFAULTS["data_seed"]

    def __post_init__(self):
        for name in ("carrier_hz", "speed_mps", "sample_interval",
                     "path_count", "antenna_count", "sample_count"):
            if getattr(self, name) <= 0:
                raise ContractViolation(f"{name} must be positive")

    @property
    def doppler_hz(self) -> float:
        return self.speed_mps * self.carrier_hz / SPEED_OF_LIGHT


def generate_fading(cfg: FadingConfig, angles=None, phases=None) -> CsiSeries:
    """h_t = (1/sqrt(N)) sum_n exp(j(2*pi*f_d*cos(a_n)*t*dt + phi_n)).

    Path angles a_n and phases phi_n are uniform on [0, 2*pi); antennas use
    independent draws from one seeded PRNG. Explicit `angles`/`phases` arrays
    (length path_count) pin the draws for all antennas, for spectral checks.
    """
    rng = np.random.default_rng(cfg.seed)
    fd = cfg.doppler_hz
    t = np.arange(cfg.sample_count) * cfg.sample_interval
    rows = []
    for _ in range(cfg.antenna_count):
        if angles is None:
            a_n = rng.uniform(0.0, 2.0 * np.pi, size=cfg.path_count)
        else:
            a_n = np.asarray(angles, dtype=float)
            if a_n.shape != (cfg.path_count,):
                raise ContractViolation("angles must have length path_count")
        if phases is None:
            phi_n = rng.uniform(0.0, 2.0 * np.pi, size=cfg.path_count)
        else:
            phi_n = np.asarray(phases, dtype=float)
            if phi_n.shape != (cfg.path_count,):
                raise ContractViolation("phases must have length path_count")
        freqs = fd * np.cos(a_n)  # (N,)
        phase_matrix = 2.0 * np.pi * freqs[:, None] * t[None, :] + phi_n[:, None]
        rows.append(np.exp(1j * phase_matrix).sum(axis=0) / np.sqrt(cfg.path_count))
    return CsiSeries(sample_interval=cfg.sample_interval, start_index=0,
                     values=np.stack(rows))


def ar_spectral_radius(theta) -> float:
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[0]
    comp = np.zeros((d, d))
    comp[0, :] = theta
    if d > 1:
        comp[1:, :-1] = np.eye(d - 1)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def generate_ar(theta, q=0.0, noise_sigma=0.0, n=1000, seed=0, burn_in=100,
                init=None):
    """z_t = q + sum_e theta_e*z_{t-e} + eps_t with Gaussian noise.

    Unstable coefficient sets (companion spectral radius >= 1) are rejected.
    `init` pins the pre-sample lags (defaults to zeros) for noise-free fixtures.
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[0]
    if d > 0 and ar_spectral_radius(theta) >= 1.0:
        raise ContractViolation("unstable AR process: spectral radius >= 1")
    rng = np.random.default_rng(seed)
    total = n + burn_in
    z = np.zeros(total + d)
    if init is not None:
        z[:d] = np.asarray(init, dtype=float)
    eps = rng.normal(0.0, noise_sigma, size=total) if noise_sigma > 0 else np.zeros(total)
    for i in range(total):
        # z[i+d] regresses on z[i+d-1] (lag 1) .. z[i] (lag d)
        z[i + d] = q + float(theta @ z[i:i + d][::-1]) + eps[i]
    return z[d + burn_in:]


def generate_line(slope, offset, n):
    t = np.arange(n, dtype=float)
    return slope * t + offset


def generate_sinusoid(amplitude, period, n, phase=0.0):
    t = np.arange(n, dtype=float)
    return amplitude * np.sin(2.0 * np.pi * t / period + phase)


def generate_piecewise_line(slope_before, slope_after, break_at, offset, n):
    t = np.arange(n, dtype=float)
    y = offset + slope_before * t
    after = t >= break_at
    y[after] = (offset + slope_before * break_at
                + slope_after * (t[after] - break_at))
    return y


def real_series_to_csi(values, sample_interval=DEFAULTS["sample_interval"]) -> CsiSeries:
    """Wrap one real stream as a single-antenna series (imag part zero)."""
    v = np.asarray(values, dtype=float)
    return CsiSeries(sample_interval=sample_interval, start_index=0,
                     values=v[None, :].astype(complex))
