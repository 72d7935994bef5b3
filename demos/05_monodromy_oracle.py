"""Numerical cross-check: integrated monodromy vs the Stokes prediction.

The lambda-plane system has a double pole at 0 and a simple pole at infinity;
its monodromy class must equal that of P0^{-s} (M0)^s, and must not move when
the deformation parameter z or the integration radius changes.
"""

import numpy as np

from coxstokes import build_system, formal_solution, numerical_monodromy

print("formal solution at the irregular pole (sl3, k = (0,1,1), order 5):")
sys3 = build_system(2, [1, 1, 1], [0, 1, 1], 1.0)
fs = formal_solution(sys3, 5)
print("   Lambda_0 =", fs.lambda0_norm, "(trivial formal monodromy)")
print("   ODE remainder coefficients:", ["%.1e" % r for r in fs.residual_norms])

print()
print("monodromy comparison (characteristic polynomials):")
for n, c, k in [
    (2, [1, 1, 1], [0, 0, 0]),
    (2, [1, 1, 1], [0, 1, 1]),
    (3, [1.0, 0.8, 1.3, 0.8], [1, 2, 0, 2]),
]:
    rep = numerical_monodromy(build_system(n, c, k, 1.0))
    print(f"   sl{n+1}, k={k}: residual {rep.max_coeff_residual:.2e}, "
          f"exponent residual {rep.exponent_residual:.2e}")
    print(f"      {rep.steps} Magnus steps, error estimate {rep.error_estimate:.1e}")
    print("      numerical:", np.round(rep.numerical_charpoly, 6))
    print("      predicted:", np.round(rep.predicted_charpoly, 6))

print()
print("isomonodromy: the class is independent of z and of the loop radius")
for z in (0.5, 1.0, 2.0):
    r = numerical_monodromy(build_system(2, [1, 1, 1], [0, 1, 1], z))
    print(f"   z = {z}: residual {r.max_coeff_residual:.2e}")
for radius in (0.7, 1.3):
    r = numerical_monodromy(build_system(2, [1, 1, 1], [0, 1, 1], 1.0), radius=radius)
    print(f"   radius = {radius}: residual {r.max_coeff_residual:.2e}")
