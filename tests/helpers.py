"""Shared test utilities: random instance generators and oracle helpers."""
from __future__ import annotations

import numpy as np

from latentlqr import DecoderClass


def random_stable(rng: np.random.Generator, d: int, rho: float = 0.9) -> np.ndarray:
    """Random matrix rescaled to the requested spectral radius."""
    a = rng.standard_normal((d, d))
    return a * (rho / max(np.abs(np.linalg.eigvals(a))))


def random_spd(rng: np.random.Generator, d: int, floor: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return floor * np.eye(d) + g @ g.T / d


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
