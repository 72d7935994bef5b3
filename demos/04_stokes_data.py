"""From asymptotic data m to the canonical Stokes element M0 = K1 K2 P0.

The parameters t are fundamental-character values of the torus element
e^{2 pi i (m+x0)/s}; the Steinberg cross-section turns them into a group
element whose unipotent factors are supported on the roots of the first two
singular directions.
"""

from fractions import Fraction as Q

import numpy as np

from coxstokes import (
    alcove_map,
    build_root_system,
    semisimple_spectrum_check,
    stokes_from_asymptotics,
    verify_factor_supports,
)

print("SL3 with m = 0 (the most symmetric point):")
sd = stokes_from_asymptotics("A2", [Q(0), Q(0)])
print("   t =", np.round(sd.t, 12))
print("   M0 (a Coxeter representative):")
print(np.round(sd.m0.real, 6))
print("   eigenvalues:", np.round(np.linalg.eigvals(sd.m0), 6))

print()
print("SL3 with generic admissible m:")
m = (Q(1, 3), Q(-1, 5))
pt = alcove_map(build_root_system("A2"), m)
print("   alcove slacks:", [str(s) for s in pt.slacks_simple], "psi:", pt.slack_psi)
sd = stokes_from_asymptotics("A2", m)
print("   t =", np.round(sd.t, 8))
print("   K1 supported on", sd.k1_support, " K2 on", sd.k2_support)
print("   ||M0 - K1 K2 A_gamma|| =", sd.factorization_residual)
chk = semisimple_spectrum_check(sd)
print("   spectrum matches e^{2 pi i mu(y)}:", chk.ok, f"(residual {chk.charpoly_residual:.2e})")
sup = verify_factor_supports(sd)
print("   support residuals of log K1, log K2 (in the standard representation):", sup.residuals)
print("   Stokes multipliers (coefficients of log K1, log K2 on their root vectors):")
for name in ("k1", "k2"):
    print(f"     {name}:", np.round(sup.multipliers[name], 8))

print()
print("D4 (triality diagram), generic m:")
sd = stokes_from_asymptotics("D4", [Q(1, 5)] * 4)
print("   Gamma order:", sd.gamma_order)
print("   K1 support (Pi_2):", sd.k1_support)
print("   K2 support (gamma(-Pi_1)):", sd.k2_support)
print("   class residual:", f"{sd.class_residual:.2e}")
print("   character residual:", f"{sd.character_residual:.2e}")
sup = verify_factor_supports(sd)
# log K1 = sum c_i t_i e_{alpha_i}: the multipliers over t are the type's constants
ratios = np.concatenate([sup.multipliers["k1"], sup.multipliers["k2"]]) / np.array(sd.t)
print("   multipliers / t in Gamma order:", np.round(ratios.real, 12))
