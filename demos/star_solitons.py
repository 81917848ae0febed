"""Star-Ricci solitons on the explicit chart model.

The *-Ricci tensor traces the curvature against f twice.  On the chart
model the Reeb sum is a soliton potential with the closed-form constants
lambda = s beta - s(1+c) beta^2 and mu = -lambda that `wfk example2` writes;
the demo checks them against (32) and (33), classifies the soliton, and shows
that the gradient potential v = sum of the Reeb coordinates gives the same data.
"""

import numpy as np

from wfk.checks import CATALOGUE, CheckContext
from wfk.cli import manifold_from_manifest
from wfk.kenmotsu import build_example2
from wfk.star_soliton import star_eta_einstein_fit


def main():
    n, s, beta, c = 1, 2, 1.0, 1.0
    lam = s * beta - s * (1.0 + c) * beta**2
    data = build_example2(n, s, beta, c)
    xibar = [0] * (2 * n) + [1] * s
    # the model carries its soliton, as the manifest's soliton block gives it
    m = manifold_from_manifest({**data, "soliton": {"lambda": lam, "mu": -lam, "V": xibar}})[0]
    origin = np.zeros(m.dim)
    rng = np.random.default_rng(2)
    points = [rng.uniform(-0.5, 0.5, m.dim) for _ in range(3)]

    st = m.at(origin)
    print("star-Ricci at the origin:")
    print(np.round(st.ric_star, 9))
    print(f"star scalar curvature: {st.r_star:+.6f}")

    abar, bbar, _ = star_eta_einstein_fit(st)
    pred = st.r_star / (2 * n)  # Corollary 2: abar = -bbar = r*/2n
    print(f"star-eta-Einstein fit: abar = {abar:+.6f}, bbar = {bbar:+.6f} "
          f"(predicted {pred:+.6f}, {-pred:+.6f})")

    sol = m.soliton
    res = CheckContext(m).group_reports("soliton", m.at(np.array(points)))  # one chunk
    print(f"\nclosed-form soliton constants for V = xibar: "
          f"lambda = {sol.lam:+.6f}, mu = {sol.mu:+.6f}")
    for cid in ("soliton.32", "soliton.33"):
        worst = res[cid].max()
        print(f"  {cid}: worst residual {worst:.1e} -> "
              f"{'ok' if worst <= CATALOGUE[cid].tolerance else 'violated'}")
    print(f"classification: {sol.classification}")

    grad_sol = {"lambda": sol.lam, "mu": sol.mu, "v": "x3+x4"}
    grad_m = manifold_from_manifest({**data, "soliton": grad_sol})[0]
    grad = CheckContext(grad_m).group_reports("grad", grad_m.at(points[0]))["grad.75"]
    print(f"gradient potential v = x3+x4: residual {grad:.1e} "
          f"({grad_m.soliton.classification})")


if __name__ == "__main__":
    main()
