"""First learning phase: a coarse decoder from open-loop Gaussian excitation.

Standard normal inputs drive the system for kappa_0 burn-in steps plus
kappa further steps; regressing the last kappa inputs onto the observation
at time kappa_1 = kappa_0 + kappa recovers the true decoder up to a linear
map, and PCA of the regressor outputs reduces to the latent dimension.
Three independent batches feed the window regression, the PCA and system
identification, each drawn by a rollout of its own. The burn-in inputs are
never recorded, so each rollout starts at its first recorded time from the
exact state marginal there and simulates only the steps its batch reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .control import cross, rowmap
from .errors import DegenerateSpectrumError, InfeasibleBurnInError, ValidationError
from .regression import DecoderClass, FittedRegressor, StructuredClass, erm_fit
from .system import EmissionModel, PolicyDef, SystemSpec, rollout_columns

EIGENGAP_TOL = 1e-12
# Largest burn-in the formula may give before the run is refused as infeasible.
KAPPA0_CAP = 10_000


@dataclass(frozen=True)
class Phase1Config:
    """Sample size, controllability bound, and the parameter upper bounds; the window
    kappa0..kappa1 is resolved once here, kappa0 by burn_in_kappa0."""

    n_id: int
    kappa: int
    psi_star: float
    alpha_star: float
    gamma_star: float
    d_x: int
    d_u: int
    r_id: float | None = None
    kappa0_override: int | None = None
    kappa0: int = field(init=False)
    kappa1: int = field(init=False)

    def __post_init__(self):
        if self.n_id < self.d_u * self.kappa:
            raise ValidationError("n_id must be at least d_u * kappa")
        if not (0.0 < self.gamma_star < 1.0):
            raise ValidationError("gamma_star must lie in (0, 1)")
        if self.psi_star < 1.0 or self.alpha_star < 1.0:
            raise ValidationError("psi_star and alpha_star must be >= 1")
        if self.kappa < 1:
            raise ValidationError("kappa must be >= 1")
        if self.kappa * self.d_u < self.d_x:
            raise ValidationError(f"kappa * d_u = {self.kappa * self.d_u} inputs cannot "
                                  f"span d_x = {self.d_x} states")
        if self.r_id is not None and self.r_id <= 0:
            raise ValidationError("r_id must be > 0")
        object.__setattr__(self, "kappa0", burn_in_kappa0(self))  # a bad burn-in raises here
        object.__setattr__(self, "kappa1", self.kappa0 + self.kappa)

    @property
    def radius(self) -> float:
        return math.sqrt(self.psi_star) if self.r_id is None else self.r_id


def burn_in_kappa0(config: Phase1Config) -> int:
    """Burn-in steps ensuring near-stationarity before the regression data.

    ceil( (1-gamma)^-1 * ln( 84 psi^5 alpha^4 d_x (1-gamma)^-2 ln(1000 n_id) ) ),
    evaluated exactly as written. A configured override (test mode) skips the
    formula; values beyond the cap, or a formula that overflows or is not
    finite, raise InfeasibleBurnInError.
    """
    if config.kappa0_override is not None:
        if config.kappa0_override < 0:
            raise ValidationError("kappa0 override must be >= 0")
        return config.kappa0_override
    one_minus = 1.0 - config.gamma_star
    try:  # a power that overflows, or ceil of inf or nan, raises
        inner = (84.0 * config.psi_star**5 * config.alpha_star**4 * config.d_x
                 * one_minus**-2 * math.log(1000.0 * config.n_id))
        kappa0 = math.ceil(math.log(inner) / one_minus)
    except (OverflowError, ValueError):
        raise InfeasibleBurnInError(
            f"burn-in formula is not finite at psi_star={config.psi_star}, "
            f"alpha_star={config.alpha_star}, gamma_star={config.gamma_star}; "
            "tighten the bounds or set kappa0_override") from None
    if kappa0 > KAPPA0_CAP:
        raise InfeasibleBurnInError(
            f"burn-in {kappa0} exceeds cap {KAPPA0_CAP}; tighten the bounds "
            "or set kappa0_override")
    return max(0, kappa0)


@dataclass
class IdBatch:
    """Columns recorded from one batch of excitation trajectories; a field
    that the batch's own fit does not read is None."""

    y_now: np.ndarray | None = None     # observation at kappa_1,      (n, d_y)
    y_next: np.ndarray | None = None    # observation at kappa_1 + 1,  (n, d_y)
    u_now: np.ndarray | None = None     # input at kappa_1,            (n, d_u)
    cost_now: np.ndarray | None = None  # revealed cost at kappa_1,   (n,)
    v: np.ndarray | None = None         # stacked inputs kappa_0..kappa_1-1, (n, kappa * d_u)

    @property
    def n(self) -> int:
        return self.y_now.shape[0]


def collect_id_data(spec: SystemSpec, emission: EmissionModel, config: Phase1Config,
                    seed: int) -> tuple[IdBatch, IdBatch, IdBatch]:
    """Three independent batches of n_id excitation trajectories, each from a
    rollout of its own that records only the columns its batch's fit reads.

    Inputs are u_t ~ N(0, I). Each rollout starts at its first recorded time
    s from the exact marginal N(0, Sigma_s) of the state there (rollout_columns
    with start = s), so every column has the law of a rollout from t = 0:
    batch 1 (h_id's regression) runs kappa_0..kappa_1 for y_k1 and the stacked
    window v; batch 2 (the PCA) draws y_k1 and takes no step; batch 3 (system
    identification) takes the one step from kappa_1 for y_k1, y_k1+1, u_k1 and
    c_k1. Rollout k reads seed derive_seed(seed, k), so the batches are
    independent. The window kappa_0..kappa_1 is config's.
    """
    kappa0, kappa1 = config.kappa0, config.kappa1

    def columns(k, start, horizon, **times):
        return rollout_columns(spec, emission, PolicyDef(sigma=1.0), horizon, config.n_id,
                               rngmod.derive_seed(seed, k), start=start, **times)

    window = tuple(range(kappa0, kappa1))
    first = columns(1, kappa0, kappa1, obs=(kappa1,), inputs=window)
    batch1 = IdBatch(y_now=first["obs"][kappa1],
                     v=np.hstack([first["inputs"].pop(t) for t in window]))
    batch2 = IdBatch(y_now=columns(2, kappa1, kappa1, obs=(kappa1,))["obs"][kappa1])
    third = columns(3, kappa1, kappa1 + 1, obs=(kappa1, kappa1 + 1), inputs=(kappa1,),
                    costs=(kappa1,))
    batch3 = IdBatch(y_now=third["obs"][kappa1], y_next=third["obs"][kappa1 + 1],
                     u_now=third["inputs"][kappa1], cost_now=third["costs"][kappa1])
    return batch1, batch2, batch3


@dataclass
class Phase1Output:
    """Fitted input predictor, PCA basis, and the composed coarse decoder."""

    h_id: FittedRegressor
    v_id: np.ndarray          # (kappa d_u, d_x), orthonormal columns
    kappa0: int
    kappa1: int
    eigenvalues: np.ndarray

    def decode(self, observations: np.ndarray) -> np.ndarray:
        return rowmap(self.h_id.predict(observations), self.v_id.T)


def _sign_convention(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = v.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def fit_coarse_decoder(batch1: IdBatch, batch2: IdBatch, decoder_class: DecoderClass,
                       config: Phase1Config) -> Phase1Output:
    """Regress the input window onto the final observation, then PCA-reduce.

    batch1 fits h_id over {M f : ||M||_op <= r_id}; batch2 estimates the
    second-moment matrix of h_id's outputs (a control.cross reduction), whose
    top-d_x eigenvectors give the reduction V_id; the window is config's. A
    degenerate eigen-gap raises with diagnostics.
    """
    klass = StructuredClass(base=decoder_class, output_dim=config.kappa * config.d_u,
                            radius=config.radius)
    h_id = erm_fit(klass, batch1.y_now, batch1.v)

    outputs = h_id.predict(batch2.y_now)
    second_moment = cross(outputs, outputs) / batch2.n
    eigvals, eigvecs = np.linalg.eigh(second_moment)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    d_x = config.d_x
    if second_moment.shape[0] > d_x:
        gap = eigvals[d_x - 1] - eigvals[d_x]
        if gap < EIGENGAP_TOL:
            raise DegenerateSpectrumError(
                f"eigen-gap {gap:.3e} below {EIGENGAP_TOL:.0e}; "
                f"spectrum: {np.array2string(eigvals, precision=3)}")
    v_id = _sign_convention(eigvecs[:, :d_x])
    return Phase1Output(h_id=h_id, v_id=v_id, kappa0=config.kappa0, kappa1=config.kappa1,
                        eigenvalues=eigvals)
