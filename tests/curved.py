"""Manifests of warped products R^s x_{e^{beta tbar}} (S^2 x ... x S^2), a test helper.

The leaf is a product of round 2-spheres of radii R_k, each in the chart of
stereographic coordinates (x_{2k+1}, x_{2k+2}), so the fiber is curved and
Kaehler.  A warped product R x_{e^{beta t}} N is Kenmotsu exactly when N is
Kaehler (Kenmotsu, Tohoku Math. J. 24, 1972); here

    g = dt^2 (+) e^{2 beta tbar} g_N,  tbar = t_1 + ... + t_s,

with f = sqrt(1+c) J on each factor, Q = 1+c on the fiber and 1 on the Reeb
block, and xi_i = eta^i the t-axes, so the model is weak beta f-Kenmotsu and
every applicable id of `wfk check` must pass on it.

    python tests/curved.py RADII S BETA C OUT

writes the manifest of the spheres of radii RADII (comma-separated, one a
factor) with s = S to the file OUT.
"""
import json
import math
import sys


def curved_product(radii, s: int, beta: float, c: float) -> dict:
    """The `wfk check` manifest of the product of round spheres of ``radii``."""
    n = len(radii)
    dim = 2 * n + s
    tbar = "+".join(f"x{2 * n + i + 1}" for i in range(s))
    metric = [[0] * (i + 1) for i in range(dim)]
    f = [[0] * dim for _ in range(dim)]
    q = [[int(i == j) for j in range(dim)] for i in range(dim)]
    root = math.sqrt(1.0 + c)
    for k, r in enumerate(radii):
        a, b = 2 * k, 2 * k + 1
        leaf = f"4*{r!r}^2*exp(2*({beta!r})*({tbar}))/(1+x{a + 1}^2+x{b + 1}^2)^2"
        metric[a][a] = metric[b][b] = leaf
        f[b][a], f[a][b] = root, -root
        q[a][a] = q[b][b] = 1.0 + c
    for i in range(2 * n, dim):
        metric[i][i] = 1
    reeb = [[int(i == j) for j in range(dim)] for i in range(2 * n, dim)]
    return {
        "version": "wfk/1", "n": n, "s": s, "dim": dim, "beta": float(beta), "c": float(c),
        "metric": metric, "f": f, "Q": q, "xi": reeb, "eta": reeb,
    }


if __name__ == "__main__":
    radii, s, beta, c, out = sys.argv[1:]
    data = curved_product([float(r) for r in radii.split(",")], int(s), float(beta), float(c))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
