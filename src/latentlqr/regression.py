"""Least-squares regression oracle over structured classes {M f : f in F}.

Every learning phase reduces to one of two fits:

* simple:     prediction  M f(y_i)                       (+ known offset)
* increment:  prediction  L (M f(y_i') - G M f(y_i))     (+ known offset)

Both are sums of terms L_j M f(y_j), linear in M for each candidate f, so one
Gram-form solve serves both: each candidate's normal equations are formed
from its Gram blocks, solved with a small ridge, the operator norm of M is
clamped to the class radius, and the loss of the clamped M is read off the
same blocks. The best candidate is returned (ties broken by lowest index).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .control import cross, rowmap
from .errors import NumericalError, ValidationError

logger = logging.getLogger(__name__)

RIDGE = 1e-10


@dataclass(frozen=True)
class DecoderClass:
    """Finite ordered set of candidate decoders, observation -> R^{d_x}."""

    candidates: tuple[Callable[[np.ndarray], np.ndarray], ...]
    contains_truth: Optional[int] = None
    names: Optional[tuple[str, ...]] = None

    def __len__(self) -> int:
        return len(self.candidates)

    def features(self, index: int, observations: np.ndarray) -> np.ndarray:
        out = np.asarray(self.candidates[index](np.atleast_2d(observations)), dtype=float)
        return np.atleast_2d(out)


@dataclass(frozen=True)
class StructuredClass:
    """Composition class {M f : f in base, ||M||_op <= radius}, output in R^m."""

    base: DecoderClass
    output_dim: int
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValidationError("class radius must be > 0")
        if self.output_dim < 1:
            raise ValidationError("output_dim must be >= 1")


@dataclass
class FittedRegressor:
    """Selected candidate with its fitted matrix and training loss."""

    candidate_index: int
    m: np.ndarray
    empirical_loss: float
    decoder_class: DecoderClass
    all_losses: tuple[float, ...] = ()
    clamped: bool = False

    def predict(self, observations: np.ndarray) -> np.ndarray:
        feats = self.decoder_class.features(self.candidate_index, observations)
        return rowmap(feats, self.m)


def _opnorm_clamp(m: np.ndarray, radius: float) -> tuple[np.ndarray, bool]:
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= radius:
        return m, False
    return (u * np.minimum(s, radius)) @ vt, True


def fit_linear_map(inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Ordinary least squares min_M sum ||M x_i - y_i||^2 with ridge RIDGE.

    Returns M of shape (m, d) operating on column vectors. x'x and x'y are
    control.cross reductions, summed in an order fixed by their shapes.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.atleast_2d(np.asarray(targets, dtype=float))
    if x.shape[0] != y.shape[0]:
        raise ValidationError(f"sample counts differ: {x.shape[0]} inputs vs {y.shape[0]} targets")
    if x.shape[0] < 1:
        raise ValidationError("at least one sample required")
    return _ridge_solve(cross(x, x), cross(x, y)).T


def _ridge_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of (gram + RIDGE I) v = rhs, the one solve of every fit."""
    try:
        return np.linalg.solve(gram + RIDGE * np.eye(gram.shape[0]), rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - ridge keeps this rare
        raise NumericalError("rank-deficient design despite ridge") from exc


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, as one broadcast product per entry."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def _erm(klass: StructuredClass, terms: list[tuple[np.ndarray, np.ndarray]],
         targets: np.ndarray, offsets: np.ndarray | None) -> FittedRegressor:
    """Fit sum_j L_j M f(y_j) + offset to the targets for every candidate f.

    terms lists the pairs (L_j, y_j). With R = targets - offsets and F_j the
    feature rows of y_j, the normal equations of vec(M) are
    (G + RIDGE I) v = r with G = sum_jk kron(F_j'F_k, L_j'L_k) and
    r = vec(sum_j L_j' (R' F_j)), F_j'F_k and R'F_j being control.cross
    reductions over the samples. The clamped v is scored as
    (v'Gv - 2v'r + ||R||^2) / n, floored at the 0 that roundoff can cross on
    exact fits; the lowest loss wins, ties to the lowest index. Both public
    fits rely on its refusal of empty or non-finite targets.
    """
    if targets.shape[0] == 0:
        raise ValidationError("empty data")
    if not np.all(np.isfinite(targets)):
        raise ValidationError("targets must be finite")
    resid = np.ascontiguousarray(
        targets if offsets is None else targets - np.atleast_2d(np.asarray(offsets, dtype=float)))
    n, m_out = resid.shape[0], klass.output_dim
    resid_sq = float(np.sum(resid * resid))
    best: FittedRegressor | None = None
    losses = []
    for idx in range(len(klass.base)):
        feats = [np.ascontiguousarray(klass.base.features(idx, y)) for _, y in terms]
        gram = sum(_kron(cross(fj, fk), lj.T @ lk)
                   for (lj, _), fj in zip(terms, feats) for (lk, _), fk in zip(terms, feats))
        rhs = sum(lj.T @ cross(resid, fj) for (lj, _), fj in zip(terms, feats)).flatten(order="F")
        vec = _ridge_solve(gram, rhs)
        m, clamped = _opnorm_clamp(vec.reshape((m_out, -1), order="F"), klass.radius)
        if clamped:
            logger.info("operator-norm clamp active for candidate %d (radius %.3g)",
                        idx, klass.radius)
        vec = m.flatten(order="F")
        loss = max(0.0, float((vec @ gram @ vec - 2.0 * (vec @ rhs) + resid_sq) / n))
        losses.append(loss)
        if best is None or loss < best.empirical_loss:
            best = FittedRegressor(candidate_index=idx, m=m, empirical_loss=loss,
                                   decoder_class=klass.base, clamped=clamped)
    assert best is not None
    best.all_losses = tuple(losses)
    return best


def erm_fit(klass: StructuredClass, observations: np.ndarray,
            targets: np.ndarray) -> FittedRegressor:
    """Empirical risk minimization of ||M f(y_i) - target_i||^2."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    tgt = np.atleast_2d(np.asarray(targets, dtype=float))
    n = obs.shape[0]
    if tgt.shape != (n, klass.output_dim):
        raise ValidationError(f"targets must be ({n}, {klass.output_dim}), got {tgt.shape}")
    return _erm(klass, [(np.eye(klass.output_dim), obs)], tgt, None)


def erm_fit_increment(klass: StructuredClass, obs_now: np.ndarray, obs_next: np.ndarray,
                      left: np.ndarray, shift: np.ndarray, targets: np.ndarray,
                      offsets: np.ndarray | None = None) -> FittedRegressor:
    """ERM for the two-point prediction L (M f(y') - G M f(y)) + offset.

    left is L (rows match the target dimension), shift is G: the two terms
    (L, y') and (-L G, y) of the hypothesis at adjacent observations.
    """
    y_now = np.atleast_2d(np.asarray(obs_now, dtype=float))
    y_next = np.atleast_2d(np.asarray(obs_next, dtype=float))
    tgt = np.atleast_2d(np.asarray(targets, dtype=float))
    left = np.atleast_2d(np.asarray(left, dtype=float))
    shift = np.atleast_2d(np.asarray(shift, dtype=float))
    n = y_now.shape[0]
    if y_next.shape[0] != n or tgt.shape[0] != n:
        raise ValidationError("sample counts differ between inputs and targets")
    if left.shape[0] != tgt.shape[1]:
        raise ValidationError("left factor rows must match target dimension")
    return _erm(klass, [(left, y_next), (-left @ shift, y_now)], tgt, offsets)
