"""Exact linear-control numerics.

Discrete Lyapunov and Riccati equations are solved by fixed-point
iteration and certified by their residuals; stability certificates,
controllability matrices, and PSD projection round out the toolbox.
All functions are pure and thread-safe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, UnstableMatrixError, ValidationError

# Eigenvalue floor of the inverse square root in strong_stability_cert.
EIG_FLOOR = 1e-14

SYM_TOL = 1e-9
LYAP_TOL = 1e-10
DARE_TOL = 1e-12
MAX_ITER = 100_000


def rowmap(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m.T, bitwise, for a batch of rows x and a small matrix m.

    A one-column m is a broadcast product (one term rounds as BLAS does) and
    never reaches threaded BLAS. Otherwise m.T is copied to contiguous, which
    avoids numpy's slow transposed-view path, except on one row: BLAS's
    vector path rounds the copy differently.
    """
    if m.shape[1] == 1:
        return x * m.T
    return x @ (m.T if x.shape[0] < 2 else np.ascontiguousarray(m.T))


def row_sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared row norms of x: the squared columns summed in index order, off
    numpy's slow short-axis reduction. Bitwise np.sum(x * x, axis=1) for up
    to 7 columns; numpy sums longer rows pairwise."""
    out = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        out += x[:, j] * x[:, j]
    return out


def spectral_radius(x: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(x))))


def _check_square(m: np.ndarray, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    return m


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = _check_square(m, name)
    if m.size and np.max(np.abs(m - m.T)) > SYM_TOL:
        raise ValidationError(f"{name} is not symmetric within {SYM_TOL}")
    return m


def _sym_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the symmetric part of m, once m is checked symmetric within SYM_TOL."""
    m = _check_symmetric(m, "matrix")
    return np.linalg.eigh((m + m.T) / 2.0)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; negative eigenvalues are clipped to zero."""
    w, v = _sym_eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def psd_project(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix to the symmetric part of m (asymmetry
    beyond SYM_TOL is an error): negative eigenvalues clamped to zero."""
    w, v = _sym_eigh(m)
    return (v * np.clip(w, 0.0, None)) @ v.T


def solve_lyapunov(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve P = X' P X + Y for stable X and PSD Y by iterating the recursion.

    Raises UnstableMatrixError when rho(X) >= 1, and ConvergenceError at the
    first iterate with a non-finite entry or when the residual has not reached
    1e-10 * (1 + ||P||_F) within the iteration cap.
    """
    x = _check_square(x, "X")
    y = _check_symmetric(y, "Y")
    if x.shape != y.shape:
        raise ValidationError(f"X and Y shapes differ: {x.shape} vs {y.shape}")
    rho = spectral_radius(x)
    if rho >= 1.0:
        raise UnstableMatrixError(f"spectral radius {rho:.6g} >= 1")
    p = y.copy()
    for _ in range(MAX_ITER):
        p_next = x.T @ p @ x + y
        if not np.all(np.isfinite(p_next)):
            raise ConvergenceError("Lyapunov iteration reached a non-finite iterate")
        if np.linalg.norm(p_next - p, "fro") <= LYAP_TOL * (1.0 + np.linalg.norm(p_next, "fro")):
            p = (p_next + p_next.T) / 2.0
            resid = np.linalg.norm(p - x.T @ p @ x - y, "fro")
            if resid <= LYAP_TOL * (1.0 + np.linalg.norm(p, "fro")):
                return p
        p = p_next
    raise ConvergenceError(f"Lyapunov iteration did not converge (rho={rho:.4f})")


@dataclass(frozen=True)
class StabilityCert:
    """Witness (S, alpha, gamma) certifying geometric decay of matrix powers.

    ||S||_op * ||S^-1||_op <= alpha and ||S^-1 X S||_op <= gamma < 1, which
    implies ||X^n||_op <= alpha * gamma^n.
    """

    witness: np.ndarray
    alpha: float
    gamma: float


def strong_stability_cert(x: np.ndarray, p: np.ndarray | None = None,
                          y: np.ndarray | None = None) -> StabilityCert:
    """Certificate from a Lyapunov witness P = X' P X + Y.

    By default Y = I and P is solved here. Supplying (p, y) lets callers use
    a value-function witness instead (e.g. the Riccati solution for a closed
    loop). With S = P^{-1/2}, one has S^{-1} X S = P^{1/2} X P^{-1/2} whose
    squared norm equals ||I - P^{-1/2} Y P^{-1/2}||_op. Both roots come from
    one eigendecomposition of P; the inverse one floors it at EIG_FLOOR.
    """
    x = _check_square(x, "X")
    d = x.shape[0]
    if y is None:
        y = np.eye(d)
    if p is None:
        p = solve_lyapunov(x, y)
    w, v = _sym_eigh(p)
    p_half = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    p_inv_half = (v / np.sqrt(np.clip(w, EIG_FLOOR, None))) @ v.T
    alpha = float(np.linalg.norm(p_half, 2) * np.linalg.norm(p_inv_half, 2))
    gamma = float(np.sqrt(max(0.0, np.linalg.norm(np.eye(d) - p_inv_half @ y @ p_inv_half, 2))))
    return StabilityCert(witness=p_inv_half, alpha=alpha, gamma=gamma)


@dataclass(frozen=True)
class ControllabilityInfo:
    """The minimal index at which C_k = [A^{k-1}B | ... | B] reaches rank d_x,
    and the d_x-th singular value of that C_k."""

    kappa_star: int | None
    sigma_min: float | None


def controllability_matrix(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """C_k = [A^{k-1}B | A^{k-2}B | ... | B].

    Block j is computed as matrix_power(A, k-1-j) @ B so extracting it
    reproduces that expression bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.hstack([np.linalg.matrix_power(a, k - 1 - j) @ b for j in range(k)])


def controllability(a: np.ndarray, b: np.ndarray, k_max: int) -> ControllabilityInfo:
    """The smallest k <= k_max with rank(C_k) = d_x.

    An uncontrollable pair is signalled by kappa_star = None, not an error.
    """
    a = _check_square(a, "A")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    d_x = a.shape[0]
    for k in range(1, k_max + 1):
        ck = controllability_matrix(a, b, k)
        svals = np.linalg.svd(ck, compute_uv=False)
        if len(svals) >= d_x and svals[d_x - 1] > d_x * max(ck.shape) * np.finfo(float).eps * (svals[0] if len(svals) else 1.0):
            return ControllabilityInfo(kappa_star=k, sigma_min=float(svals[d_x - 1]))
    return ControllabilityInfo(kappa_star=None, sigma_min=None)


@dataclass(frozen=True)
class DareSolution:
    """Fixed point of the Riccati recursion together with the optimal gain."""

    p: np.ndarray
    k: np.ndarray
    residual: float
    iterations: int


def _riccati_solve(bpb: np.ndarray, bpa: np.ndarray, iteration: int) -> np.ndarray:
    """(R + B'PB)^{-1} B'PA; a singular R + B'PB raises ConvergenceError."""
    try:
        return np.linalg.solve(bpb, bpa)
    except np.linalg.LinAlgError:
        raise ConvergenceError(f"DARE iteration went singular at iteration {iteration}") from None


def solve_dare(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> DareSolution:
    """Riccati fixed point by value iteration from P0 = Q.

    P <- A'PA + Q - A'PB (R + B'PB)^{-1} B'PA, stopped when the relative
    Frobenius change is below DARE_TOL. Requires Q PSD and R PD (symmetric), and
    (A, B) stabilizable, prechecked as rho(A) < 1 or full controllability.
    One Riccati step at the fixed point gives both the gain
    K = -(R + B'PB)^{-1} B'PA and the residual certificate. Raises
    ConvergenceError at the first iterate with a non-finite entry, when
    R + B'PB is singular (in the iteration or the final gain solve), or at
    the iteration cap.
    """
    a = _check_square(a, "A")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    q = _check_symmetric(q, "Q")
    r = _check_symmetric(r, "R")
    d_x = a.shape[0]
    if b.shape[0] != d_x:
        raise ValidationError(f"B has {b.shape[0]} rows, expected {d_x}")
    if np.min(np.linalg.eigvalsh(q)) < -1e-9:
        raise ValidationError("Q must be positive semidefinite")
    if np.min(np.linalg.eigvalsh(r)) <= 0:
        raise ValidationError("R must be positive definite")
    if spectral_radius(a) >= 1.0 and controllability(a, b, d_x).kappa_star is None:
        raise UnstableMatrixError("(A, B) is neither stable nor controllable")

    p = q.copy()
    for iterations in range(1, MAX_ITER + 1):
        bpb = r + b.T @ p @ b
        bpa = b.T @ p @ a
        p_next = a.T @ p @ a + q - bpa.T @ _riccati_solve(bpb, bpa, iterations)
        p_next = (p_next + p_next.T) / 2.0
        if not np.all(np.isfinite(p_next)):
            raise ConvergenceError(f"DARE iteration went non-finite at iteration {iterations}")
        change = np.linalg.norm(p_next - p, "fro")
        p = p_next
        if change <= DARE_TOL * max(1.0, np.linalg.norm(p, "fro")):
            break
    else:
        raise ConvergenceError("DARE value iteration hit the iteration cap")

    bpb = r + b.T @ p @ b
    bpa = b.T @ p @ a
    gain = _riccati_solve(bpb, bpa, iterations)
    residual = float(np.linalg.norm(p - (a.T @ p @ a + q - bpa.T @ gain), "fro"))
    return DareSolution(p=p, k=-gain, residual=residual, iterations=iterations)


def open_loop_state_cov(a: np.ndarray, b: np.ndarray, sigma_w: np.ndarray,
                        sigma_0: np.ndarray, k: int) -> np.ndarray:
    """Covariance of the state after k steps of unit Gaussian inputs.

    A^k Sigma_0 (A^k)' + sum_{t=1}^{k} A^{t-1} (Sigma_w + B B') (A^{t-1})',
    summed exactly; terms are dropped once their norm falls below 1e-14.
    Inputs u_t = sigma nu_t with nu_t ~ N(0, I) give the covariance at
    b = sigma B; k = 0 returns Sigma_0.
    """
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    drive = np.asarray(sigma_w, dtype=float) + b @ b.T
    a_k = np.linalg.matrix_power(a, k)
    cov = a_k @ np.asarray(sigma_0, dtype=float) @ a_k.T
    term = drive.copy()
    for _ in range(k):
        cov = cov + term
        term = a @ term @ a.T
        if np.linalg.norm(term, "fro") < 1e-14:
            break
    return (cov + cov.T) / 2.0


def optimal_policy(spec, emission):
    """Benchmark policy: the infinite-horizon gain applied to the true decoder."""
    from .system import CurrentObsDecoder, PolicyDef  # local import to avoid a cycle

    sol = solve_dare(spec.a, spec.b, spec.q, spec.r)
    return PolicyDef(gain=sol.k, decoders=CurrentObsDecoder(emission.decode_batch))
