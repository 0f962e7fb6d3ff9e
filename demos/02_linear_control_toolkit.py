"""Exact linear-control numerics: Riccati, Lyapunov, certificates, PSD cone.

Everything here is certified by residuals or closed forms rather than
trusted blindly, which is what the learning phases rely on downstream.
"""
import numpy as np

from latentlqr import (controllability, psd_project, solve_dare, solve_lyapunov,
                       strong_stability_cert)
from latentlqr.control import controllability_matrix

print("=" * 64)
print("Riccati equation by value iteration")
print("=" * 64)
# scalar case has a closed form: p solves p^2 - 0.25 p - 1 = 0
p_star = (0.25 + np.sqrt(0.0625 + 4)) / 2
sol = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
print(f"p = {sol.p[0,0]:.9f}   closed form {p_star:.9f}   diff {abs(sol.p[0,0]-p_star):.1e}")
print(f"K = {sol.k[0,0]:.9f}   residual {sol.residual:.2e}   {sol.iterations} iterations")

rng = np.random.default_rng(3)
a = rng.standard_normal((4, 4))
a *= 0.85 / max(abs(np.linalg.eigvals(a)))
b = rng.standard_normal((4, 2))
sol = solve_dare(a, b, np.eye(4), np.eye(2))
rho = max(abs(np.linalg.eigvals(a + b @ sol.k)))
print(f"random 4x2 system: closed-loop spectral radius {rho:.4f} < 1")

print()
print("Lyapunov equation and strong-stability certificates")
p = solve_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
print(f"scalar P = X'PX + I with X=0.5: P = {p[0,0]:.6f} (geometric series 4/3)")
cert = strong_stability_cert(a)
powers = [np.linalg.norm(np.linalg.matrix_power(a, n), 2) for n in (1, 5, 20, 50)]
bounds = [cert.alpha * cert.gamma**n for n in (1, 5, 20, 50)]
print(f"certificate alpha={cert.alpha:.3f} gamma={cert.gamma:.3f}")
for n, nm, bd in zip((1, 5, 20, 50), powers, bounds):
    print(f"  ||X^{n:2d}|| = {nm:9.2e}  <=  alpha*gamma^{n:<2d} = {bd:9.2e}")

print()
print("Controllability matrices")
a_di, b_di = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
info = controllability(a_di, b_di)
print(f"double integrator: kappa_star = {info.kappa_star}, sigma_min = {info.sigma_min:.3f}")
print(f"C_2 =\n{controllability_matrix(a_di, b_di, 2)}")

print()
print("PSD projection (Frobenius-nearest point in the cone)")
m = np.array([[1.0, 0.3], [0.3, -2.0]])
proj = psd_project(m)
print(f"eigenvalues before {np.linalg.eigvalsh(m).round(3)} "
      f"after {np.linalg.eigvalsh(proj).round(3)}")
