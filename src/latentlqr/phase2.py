"""Second learning phase: dynamics, noise covariance, and cost recovery.

The coarse decoder's output is treated as the state; regressions mimicking
the dynamical equations then recover (A, B, Sigma_w, Q) in the decoder's
basis. Only the cost fit touches the revealed costs.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .control import cross, psd_project, quad_rows, rowmap
from .errors import ValidationError
from .phase1 import IdBatch
from .regression import fit_linear_map


@dataclass
class SysIdEstimates:
    """Estimated system in the identified basis; sysid/ holds one <field>.csv per field."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    sigma_w_hat: np.ndarray
    q_hat: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            m = np.atleast_2d(np.asarray(getattr(self, f.name), dtype=float))
            if not np.all(np.isfinite(m)):
                raise ValidationError(f"{f.name} contains non-finite entries")
            setattr(self, f.name, m)


def fit_dynamics(batch3: IdBatch, x_now: np.ndarray, x_next: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Joint least squares of decoded next states on decoded states and inputs
    (x_now, x_next: batch3's y_now, y_next decoded, as in the fits below)."""
    d_x = x_now.shape[1]
    m = fit_linear_map(np.hstack([x_now, batch3.u_now]), x_next)
    return m[:, :d_x], m[:, d_x:]


def fit_noise_cov(batch3: IdBatch, x_now: np.ndarray, x_next: np.ndarray,
                  a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
    """Empirical second moment of the one-step residuals (a control.cross
    reduction), PSD-projected."""
    resid = x_next - rowmap(x_now, a_hat) - rowmap(batch3.u_now, b_hat)
    sigma = cross(resid, resid) / batch3.n
    return psd_project(sigma)


def _sym_features(x: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Features of the symmetric quadratic-form parameterization.

    x' Q x = sum_j Q_jj x_j^2 + sum_{j<k} 2 Q_jk x_j x_k, so the design has
    one column per diagonal entry and one per doubled off-diagonal product.
    """
    d = x.shape[1]
    cols = []
    index = []
    for j in range(d):
        cols.append(x[:, j] ** 2)
        index.append((j, j))
    for j in range(d):
        for k in range(j + 1, d):
            cols.append(2.0 * x[:, j] * x[:, k])
            index.append((j, k))
    return np.column_stack(cols), index


def cost_fit_min_samples(d: int) -> int:
    """Fewest samples fit_cost takes for a d x d cost: its d(d+1)/2 parameters."""
    return d * (d + 1) // 2


def fit_cost(batch3: IdBatch, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Quadratic fit of the revealed costs minus the known input penalty,
    u'Ru as control.quad_rows sums it, so exactly what the simulator added.

    Solved on the d_x(d_x+1)/2-dimensional symmetric parameterization to
    avoid the null space of the full vectorization, then PSD-projected.
    """
    d = x.shape[1]
    n_params = cost_fit_min_samples(d)
    if batch3.n < n_params:
        raise ValidationError(f"need at least {n_params} samples to fit a {d}x{d} cost")
    r = np.atleast_2d(np.asarray(r, dtype=float))
    target = batch3.cost_now - quad_rows(batch3.u_now, r)
    design, index = _sym_features(x)
    coef = fit_linear_map(design, target[:, None])[0]
    q = np.zeros((d, d))
    for c, (j, k) in zip(coef, index):
        q[j, k] = c
        q[k, j] = c
    return psd_project(q)


def run_sysid(batch3: IdBatch, decoder: Callable[[np.ndarray], np.ndarray],
              r: np.ndarray) -> SysIdEstimates:
    """All three regressions on the third excitation batch, which the decoder
    decodes once per observation column."""
    x_now, x_next = decoder(batch3.y_now), decoder(batch3.y_next)
    a_hat, b_hat = fit_dynamics(batch3, x_now, x_next)
    sigma_w_hat = fit_noise_cov(batch3, x_now, x_next, a_hat, b_hat)
    q_hat = fit_cost(batch3, x_now, r)
    return SysIdEstimates(a_hat=a_hat, b_hat=b_hat, sigma_w_hat=sigma_w_hat, q_hat=q_hat)
