"""Tour of the explicit chart model.

Builds the 4-dimensional instance (n=1, s=2, beta=1, c=1), verifies the
structure axioms and the defining nabla-f condition at random points, and
prints the curvature quantities that make it eta-Einstein.
"""

import numpy as np

from wfk.kenmotsu import build_example2, eta_einstein_fit, kenmotsu_residual
from wfk.weakf import check_axioms, f_basis, theorem1_check


def main():
    m = build_example2(n=1, s=2, beta=1.0, c=1.0)
    origin = np.zeros(m.dim)
    rng = np.random.default_rng(0)
    points = [origin] + [rng.uniform(-0.5, 0.5, m.dim) for _ in range(3)]

    print(f"chart model: dim = {m.dim}, beta = {m.beta}, c = {m.c}")
    print("\nstructure axioms (worst residual per point):")
    for p in points:
        worst = max(check_axioms(m.at(p)).values())
        print(f"  p = {np.round(p, 3)}: {worst:.2e}")

    print("\ndefining condition and exterior system:")
    for p in points:
        k = kenmotsu_residual(m.at(p))["kenmotsu.12"]
        t1 = max(theorem1_check(m.at(p)).values())
        print(f"  p = {np.round(p, 3)}: nabla-f {k:.2e}, "
              f"normality/closedness {t1:.2e}")

    frame, lambdas = f_basis(m.at(origin))
    print(f"\nadapted frame at the origin (Q-eigenvalues {lambdas}):")
    for row in frame:
        print(f"  {np.round(row, 6)}")

    fit = eta_einstein_fit(m.at(origin))
    print(f"\neta-Einstein fit: Ric = a g - a sum eta(x)eta + (a+b) etabar(x)etabar")
    print(f"  a = {fit.a:+.6f}, b = {fit.b:+.6f} "
          f"(closed form {fit.predicted}), residual {fit.residual:.2e}")


if __name__ == "__main__":
    main()
