"""Benchmark instance catalog: systems, emissions, and decoder classes.

The cubic-lift family observes y = Rot @ [psi(x); phi(x)] where
psi(z) = z + c z^3 is applied coordinate-wise (strictly increasing, so
exactly invertible by a guarded cubic root solve), phi is a linear lift
to the remaining coordinates, and Rot is a fixed orthogonal matrix. The
true decoder inverts psi on the first d_x coordinates of Rot' y.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .control import controllability, rowmap, solve_dare, strong_stability_cert
from .errors import ValidationError
from .regression import DecoderClass
from .system import EmissionModel, SystemSpec

CATALOG = ("scalar-identity", "di-cubic-lift", "stable2x1-lift5")
# Slack parameter_bounds puts on every bound it derives from the ground truth.
MARGIN = 1.05


def cubic_forward(z: np.ndarray, c: float) -> np.ndarray:
    # z * z * z, not z**3: numpy sends cubes through libm pow, ~40x slower
    return z + c * (z * z * z)


def cubic_inverse(w: np.ndarray, c: float) -> np.ndarray:
    """Unique real root of z + c z^3 = w for c >= 0.

    Cardano's formula for the depressed cubic, polished with two Newton
    steps (in place, cubes by multiplication); the derivative 1 + 3 c z^2
    >= 1 keeps the solve well guarded.
    """
    w = np.asarray(w, dtype=float)
    if c == 0.0:
        return w.copy()
    if c < 0:
        raise ValidationError("cubic coefficient must be >= 0")
    h = np.atleast_1d(w / c / 2.0)  # -q/2 of z^3 + p z + q, p = 1/c, q = -w/c
    disc = np.sqrt(h * h + (1.0 / c / 3.0) ** 3)
    z = np.cbrt(h + disc) + np.cbrt(h - disc)
    z2, step = h, disc
    for _ in range(2):
        np.multiply(z, z, out=z2)
        np.multiply(z2, z, out=step)
        step *= c
        step += z
        step -= w
        z2 *= 3.0 * c
        z2 += 1.0
        step /= z2
        z -= step
    return z.reshape(w.shape)


def _orthogonal(d: int, seed: int) -> np.ndarray:
    g = rngmod.generator(seed, rngmod.TAG_INSTANCE)
    q, r = np.linalg.qr(g.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class CubicLiftFamily:
    """Parameters identifying one cubic-lift emission (or a distractor decoder).

    The lift filling the extra observation coordinates is linear, so the
    c = 0 member of the family degenerates to a purely linear emission.
    """

    d_x: int
    d_y: int
    c: float
    rot: np.ndarray
    lift: np.ndarray  # (d_y - d_x) x d_x linear lift

    def emit(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        top = cubic_forward(x, self.c)
        bottom = rowmap(x, self.lift)
        return rowmap(np.hstack([top, bottom]), self.rot)

    def decode(self, y: np.ndarray) -> np.ndarray:
        return cubic_inverse(np.atleast_2d(y) @ self.rot[:, : self.d_x], self.c)


def cubic_lift_emission(d_x: int, d_y: int, c: float, seed: int) -> tuple[EmissionModel, CubicLiftFamily]:
    if d_y < d_x:
        raise ValidationError("d_y must be >= d_x")
    g = rngmod.generator(seed, rngmod.TAG_INSTANCE, 1)
    lift = g.standard_normal((d_y - d_x, d_x))
    fam = CubicLiftFamily(d_x=d_x, d_y=d_y, c=c, rot=_orthogonal(d_y, seed), lift=lift)
    return EmissionModel(d_y=d_y, emit=fam.emit, true_decoder=fam.decode), fam


def identity_emission(d_x: int) -> EmissionModel:
    return EmissionModel(d_y=d_x, emit=lambda x: np.atleast_2d(x),
                         true_decoder=lambda y: np.atleast_2d(y))


def _cubic_decoder_class(fam: CubicLiftFamily, seed: int) -> DecoderClass:
    """f_star plus distractors with wrong cubic coefficient or wrong rotation."""
    def wrong_c(cc: float) -> CubicLiftFamily:
        return CubicLiftFamily(fam.d_x, fam.d_y, cc, fam.rot, fam.lift)

    def wrong_rot(s: int) -> CubicLiftFamily:
        return CubicLiftFamily(fam.d_x, fam.d_y, fam.c, _orthogonal(fam.d_y, s), fam.lift)

    variants = [
        ("wrong-c-0", wrong_c(0.0)),
        ("wrong-c-half", wrong_c(fam.c / 2.0 if fam.c > 0 else 0.25)),
        ("wrong-c-double", wrong_c(2.0 * fam.c if fam.c > 0 else 1.0)),
        ("truth", fam),
        ("wrong-rot-1", wrong_rot(seed + 101)),
        ("wrong-rot-2", wrong_rot(seed + 202)),
        ("wrong-rot-3", wrong_rot(seed + 303)),
        ("wrong-rot-c", CubicLiftFamily(fam.d_x, fam.d_y, 2.0 * fam.c + 0.1,
                                        _orthogonal(fam.d_y, seed + 404), fam.lift)),
    ]
    names = tuple(name for name, _ in variants)
    candidates = tuple(v.decode for _, v in variants)
    return DecoderClass(candidates=candidates, contains_truth=names.index("truth"),
                       names=names)


def make_benchmark_instance(name: str) -> tuple[SystemSpec, EmissionModel, DecoderClass]:
    """Catalog lookup; every returned instance passes SystemSpec.validate()
    and a decodability check."""
    if name == "scalar-identity":
        # small initial covariance keeps the uncontrollable step-0 handicap
        # of decoder-based policies (f_0 = 0) mild even at horizon 1
        spec = SystemSpec(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]],
                          sigma_w=[[1.0]], sigma_0=[[0.25]])
        emission = identity_emission(1)
        cls = DecoderClass(candidates=(lambda y: np.atleast_2d(y),), contains_truth=0,
                           names=("identity",))
    elif name == "di-cubic-lift":
        # damped-integrator pair; the full-rank input map keeps kappa_star = 1
        # and the identification similarity well conditioned
        spec = SystemSpec(a=[[0.45, 0.2], [0.0, 0.45]], b=[[0.9, 0.1], [0.0, 0.9]],
                          q=np.eye(2), r=np.eye(2),
                          sigma_w=0.4 * np.eye(2), sigma_0=0.4 * np.eye(2))
        emission, fam = cubic_lift_emission(d_x=2, d_y=5, c=0.5, seed=7)
        cls = _cubic_decoder_class(fam, seed=7)
    elif name == "stable2x1-lift5":
        spec = SystemSpec(a=[[0.6, -0.3], [0.3, 0.6]], b=[[0.5], [1.0]],
                          q=np.eye(2), r=[[1.0]], sigma_w=np.eye(2), sigma_0=0.5 * np.eye(2))
        emission, fam = cubic_lift_emission(d_x=2, d_y=5, c=0.3, seed=13)
        cls = _cubic_decoder_class(fam, seed=13)
    else:
        raise ValidationError(f"unknown instance {name!r}; catalog: {', '.join(CATALOG)}")
    spec.validate()
    emission.check_decodable(spec)
    return spec, emission, cls


@dataclass(frozen=True)
class ParameterBounds:
    """Upper bounds handed to the learner: norms, stability, controllability."""

    psi_star: float
    alpha_star: float
    gamma_star: float
    kappa: int


def parameter_bounds(spec: SystemSpec, witness: str = "lyapunov") -> ParameterBounds:
    """Compute valid parameter bounds from ground truth.

    witness selects the strong-stability certificate for the closed loop:
    'lyapunov' uses the identity-witness Lyapunov solution for both A and
    A + B K_inf; 'value' certifies the closed loop with the Riccati solution
    P_inf and Y = Q + K' R K instead.
    """
    sol = solve_dare(spec.a, spec.b, spec.q, spec.r)
    a_cl = spec.a + spec.b @ sol.k
    norms = [np.linalg.norm(m, 2) for m in
             (spec.a, spec.b, spec.q, spec.r, spec.sigma_w,
              np.linalg.inv(spec.sigma_w), spec.sigma_0, sol.k, sol.p)]
    cert_a = strong_stability_cert(spec.a)
    if witness == "value":
        y_cl = spec.q + sol.k.T @ spec.r @ sol.k
        cert_cl = strong_stability_cert(a_cl, p=sol.p, y=y_cl)
    elif witness == "lyapunov":
        cert_cl = strong_stability_cert(a_cl)
    else:
        raise ValidationError(f"unknown stability witness {witness!r}")
    info = controllability(spec.a, spec.b)
    if info.kappa_star is None:
        raise ValidationError("instance is not controllable")
    # the margin on gamma eats into the stability gap so the bound stays below 1
    gamma = max(cert_a.gamma, cert_cl.gamma)
    gamma = gamma + (MARGIN - 1.0) * (1.0 - gamma)
    return ParameterBounds(psi_star=max(1.0, MARGIN * max(norms)),
                           alpha_star=max(1.0, MARGIN * max(cert_a.alpha, cert_cl.alpha)),
                           gamma_star=min(0.999, max(1e-3, gamma)),
                           kappa=info.kappa_star)
