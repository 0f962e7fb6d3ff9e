"""Shared test utilities: random instance generators and oracle helpers."""
from __future__ import annotations

import numpy as np

from latentlqr import DecoderClass, PolicyDef, SystemSpec, solve_lyapunov
from latentlqr import rng as rngmod
from latentlqr.control import psd_sqrt
from latentlqr.system import CurrentObsDecoder


def random_stable(rng: np.random.Generator, d: int, rho: float = 0.9) -> np.ndarray:
    """Random matrix rescaled to the requested spectral radius."""
    a = rng.standard_normal((d, d))
    return a * (rho / max(np.abs(np.linalg.eigvals(a))))


def random_spd(rng: np.random.Generator, d: int, floor: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return floor * np.eye(d) + g @ g.T / d


def constant_policy(value: float) -> PolicyDef:
    """u_t = value on a one-input system: gain [[value]] on a decoder of ones."""
    return PolicyDef(gain=[[value]],
                     decoders=CurrentObsDecoder(lambda y: np.ones((y.shape[0], 1))))


def truth_only(cls: DecoderClass) -> DecoderClass:
    """Restrict a decoder class to the true decoder."""
    assert cls.contains_truth is not None
    return DecoderClass(candidates=(cls.candidates[cls.contains_truth],), contains_truth=0,
                        names=("truth",))


def principal_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle between the column spans of u and v."""
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    s = np.linalg.svd(qu.T @ qv, compute_uv=False)
    return float(np.arccos(np.clip(s[-1], -1.0, 1.0)))


def estimate_growth_bound(decoder_class: DecoderClass, spec: SystemSpec, emit, seed: int,
                          n: int = 100_000) -> float:
    """Growth bound L = max ||f(y)|| / max(1, ||x||) over the candidates f,
    estimated on n sampled open-loop latent states."""
    stationary = solve_lyapunov(spec.a, spec.sigma_w + spec.b @ spec.b.T)
    g = rngmod.generator(seed, rngmod.TAG_INSTANCE, 2)
    x = g.standard_normal((n, spec.d_x)) @ psd_sqrt(stationary + spec.sigma_0).T
    y = emit(x)
    denom = np.maximum(1.0, np.linalg.norm(x, axis=1))
    growth = 1.0
    for f in decoder_class.candidates:
        growth = max(growth, float(np.max(np.linalg.norm(f(y), axis=1) / denom)))
    return growth


def closed_form_step_cost(spec: SystemSpec, gain: np.ndarray, sigma: float,
                          t_horizon: int) -> float:
    """Exact mean per-step cost (1/T) sum_{t=1..T} E c_t of u_t = K x_t + sigma nu_t
    acting on the true state: Sigma_{t+1} = (A+BK) Sigma_t (A+BK)' + Sigma_w +
    sigma^2 BB' from Sigma_0, and E c_t = tr((Q + K'RK) Sigma_t) + sigma^2 tr(R)."""
    closed = spec.a + spec.b @ gain
    drive = spec.sigma_w + sigma**2 * spec.b @ spec.b.T
    weight = spec.q + gain.T @ spec.r @ gain
    cov, total = spec.sigma_0, 0.0
    for _ in range(t_horizon):
        cov = closed @ cov @ closed.T + drive
        total += float(np.trace(weight @ cov)) + sigma**2 * float(np.trace(spec.r))
    return total / t_horizon
