"""Star-Ricci solitons on the explicit chart model.

The *-Ricci tensor traces the curvature against f twice.  On the chart
model the Reeb sum is a soliton potential; the demo recovers the soliton
constants by least squares, classifies the soliton, and shows that the
gradient potential v = sum of the Reeb coordinates gives the same data.
"""

import numpy as np

from wfk import expr as ex
from wfk.checks import CATALOGUE
from wfk.geometry import FieldSpec
from wfk.kenmotsu import build_example2
from wfk.star_soliton import (
    SolitonData,
    fit_soliton_constants,
    gradient_soliton_residual,
    soliton_residual,
    star_eta_einstein_fit,
)


def main():
    n, s, beta, c = 1, 2, 1.0, 1.0
    m = build_example2(n, s, beta, c)
    origin = np.zeros(m.dim)
    rng = np.random.default_rng(2)
    points = [rng.uniform(-0.5, 0.5, m.dim) for _ in range(3)]

    st = m.at(origin)
    print("star-Ricci at the origin:")
    print(np.round(st.ric_star, 9))
    print(f"star scalar curvature: {st.r_star:+.6f}")

    fit = star_eta_einstein_fit(st)
    print(f"star-eta-Einstein fit: abar = {fit.a:+.6f}, bbar = {fit.b:+.6f} "
          f"(predicted {fit.predicted})")

    xibar = FieldSpec.from_entries([0.0] * (2 * n) + [1.0] * s, m.dim)
    lam, mu, res = fit_soliton_constants(m, xibar, points)
    print(f"\nfitted soliton constants for V = xibar: "
          f"lambda = {lam:+.6f}, mu = {mu:+.6f} (residual {res:.1e})")
    gap = abs(lam + mu)
    print(f"lambda + mu = 0 check: gap {gap:.1e} -> "
          f"{'ok' if gap <= CATALOGUE['prop5'].tolerance else 'violated'}")

    sol = SolitonData(lam=lam, mu=mu, V=xibar)
    cross = soliton_residual(m.at(points[0]), sol)["soliton.33"]
    print(f"classification: {sol.classification} (cross-form residual {cross:.1e})")

    grad_sol = SolitonData(lam=lam, mu=mu, v=ex.parse_expression("x3+x4", m.dim))
    grad = gradient_soliton_residual(m.at(points[0]), grad_sol)["grad.75"]
    print(f"gradient potential v = x3+x4: residual {grad:.1e} "
          f"({grad_sol.classification})")


if __name__ == "__main__":
    main()
