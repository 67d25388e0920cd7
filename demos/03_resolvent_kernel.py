"""Closed-form weighted resolvent kernel against its two reference routes.

Route one: trapezoid quadrature on the circle for each coefficient (this is
also what pins the bracket prefactor to 1, not the tempting sqrt(2/pi)
variant).  Route two: a direct solve by leaves-first elimination on the tree,
with the truncation boundary closed by the dangling-subtree self-energy,
which realizes the untruncated operator exactly on the kept block.
"""
import numpy as np

from spectree import (
    build_spherical_basis,
    build_tree,
    direct_resolvent_block,
    fourier_coefficient,
    from_z,
    sine_projected_coefficient,
    t_minus,
    weighted_resolvent_kernel,
    weights,
)
from spectree.quadrature import fourier_quadrature, sine_projected_quadrature

k, depth = 2, 8
t = build_tree(k, depth)
b = build_spherical_basis(t)
z = t_minus(k) - 0.5
sp = from_z(k, z)
print(f"spectral point: z = {z:.4f}, u = {sp.u:.4f}, |e^(i phi)| = {abs(sp.eiphi):.4f}")

print("\ncoefficients vs circle quadrature:")
for n in (0, 1, 4):
    closed = fourier_coefficient(n, sp)
    quad = fourier_quadrature(sp.u, n)
    print(f"  fourier n={n}: closed {closed:.12f} quadrature {quad:.12f}")
for j, l in ((0, 0), (1, 2)):
    closed = sine_projected_coefficient(j, l, sp)
    quad = sine_projected_quadrature(k, z, j, l)
    print(f"  sine-projected ({j},{l}): |closed - quadrature| = {abs(closed - quad):.2e}")

delta = 6 * np.log(2)
e_minus, _ = weights(t, delta)
kern = weighted_resolvent_kernel(t, b, e_minus, e_minus, sp)
oracle = e_minus[:, None] * direct_resolvent_block(t, z) * e_minus[None, :]
rel = np.linalg.norm(kern.entries - oracle) / np.linalg.norm(oracle)
print(f"\nassembled kernel ({t.vertex_count}x{t.vertex_count}) vs boundary-closed LU: "
      f"relative Frobenius error {rel:.2e}")
print(f"kernel Hilbert-Schmidt norm: {kern.hs_norm:.6f}")
