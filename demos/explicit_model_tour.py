"""Tour of the explicit chart model.

Builds the 4-dimensional instance (n=1, s=2, beta=1, c=1), verifies the
structure axioms and the defining nabla-f condition at random points, and
prints the curvature quantities that make it eta-Einstein.
"""

import numpy as np

from wfk.checks import CheckContext
from wfk.cli import manifold_from_manifest
from wfk.kenmotsu import build_example2, eta_einstein_fit


def main():
    data = build_example2(n=1, s=2, beta=1.0, c=1.0)
    m = manifold_from_manifest(data)[0]
    ctx = CheckContext(m)  # a group's residuals, {check id: residual}, as the CLI reads them
    origin = np.zeros(m.dim)
    rng = np.random.default_rng(0)
    points = [origin] + [rng.uniform(-0.5, 0.5, m.dim) for _ in range(3)]

    print(f"chart model: dim = {m.dim}, beta = {m.beta}, c = {data['c']}")
    print("\nstructure axioms (worst residual per point):")
    for p in points:
        worst = max(ctx.group_reports("axioms", m.at(p)).values())
        print(f"  p = {np.round(p, 3)}: {worst:.2e}")

    print("\ndefining condition and exterior system:")
    for p in points:
        k = ctx.group_reports("kenmotsu", m.at(p))["kenmotsu.12"]
        t1 = max(ctx.group_reports("theorem1", m.at(p)).values())
        print(f"  p = {np.round(p, 3)}: nabla-f {k:.2e}, "
              f"normality/closedness {t1:.2e}")

    fit = eta_einstein_fit(m.at(origin))
    print(f"\neta-Einstein fit: Ric = a g - a sum eta(x)eta + (a+b) etabar(x)etabar")
    a_pred, b_pred = fit.predicted
    print(f"  a = {fit.a:+.6f}, b = {fit.b:+.6f} "
          f"(closed form {a_pred:+.6f}, {b_pred:+.6f}), residual {fit.residual:.2e}")


if __name__ == "__main__":
    main()
