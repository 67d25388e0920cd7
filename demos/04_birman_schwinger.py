"""The sandwiched resolvent near the lower band edge.

An edge resonance is exactly an eigenvalue -1 of the compact sandwich
sign * J sqrt|m| (free - z(lam))^{-1} sqrt|m|.  Each closed-form bracket has
a simple pole at the edge, but the poles cancel pairwise, and the
desingularized form stays holomorphic through lam = 0 -- shown here by
direct evaluation at the edge and a Cauchy-integral reconstruction.
"""
import cmath

import numpy as np

from spectree import (
    PotentialSpec,
    build_spherical_basis,
    build_tree,
    hol_split,
    m_tilde,
    polar_factors,
)
from spectree.birman_schwinger import BSFactory, phase_ratio
from spectree.quadrature import cauchy_reconstruct

k, depth = 2, 8
t = build_tree(k, depth)
b = build_spherical_basis(t)
spec = PotentialSpec.radial_exp(0.3 * (1 + 0.5j), 6 * np.log(2))

j_phase, sqrt_abs = polar_factors(m_tilde(t, spec))
print("polar factors at the root: phase", j_phase[0], "modulus root", sqrt_abs[0])

factory = BSFactory(t, b, spec)
print(f"support: {factory.support.size} vertices up to sphere {factory.r_support}")
print(f"working disk radius: {factory.eps0:.3f}")

sandwich = factory.matrix(0.1j, +1)
eigs = np.linalg.eigvals(sandwich)
print(f"\nsandwich at lam=0.1j: {sandwich.shape[0]}x{sandwich.shape[1]}, "
      f"closest eigenvalue to -1 at distance {np.abs(eigs + 1).min():.4f}")

print("\nnorm along a ray into the edge (bounded = removable point):")
for lam in (1e-1, 1e-2, 1e-3, 1e-4):
    print(f"  |lam| = {lam:.0e}: norm {np.linalg.norm(factory.matrix(lam, +1), 2):.6f}")

gamma, beta = phase_ratio(2, 0.0), phase_ratio(0, 0.0)
print("\npole-free coefficient pair at the edge itself (j=l=0):",
      f"beta - gamma = {beta - gamma:.6f} (closed form -1j)")
hol, res = hol_split(t, b, spec, 0.05j, factory=factory)
print(f"desingularized reconstruction residual at lam=0.05j: {res:.2e}")
hol0, _ = hol_split(t, b, spec, 0.0, factory=factory)
print(f"desingularized kernel evaluated AT the edge: finite = {np.isfinite(hol0).all()}")

radius, nodes = 0.05, 64
samples = np.array([
    factory.matrix(radius * cmath.exp(2j * np.pi * i / nodes), +1) for i in range(nodes)
])
at = 0.01 + 0.01j
err = np.abs(cauchy_reconstruct(samples, radius, at) - factory.matrix(at, +1)).max()
print(f"Cauchy reconstruction across the edge at {at}: max error {err:.2e}")
