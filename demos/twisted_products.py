"""Twisted products as a factory for the defining nabla-f condition.

A metric dt^2 (+) sigma^2 gbar over a fiber of flat R^2 factors carries
the structure whenever sigma twists exponentially in the t-directions.
Each product is given as its factor scales and sigma's source text, which
the builder writes into a manifest that `manifold_from_manifest` reads.  The
demo builds three variants and audits the connection relations that
characterize the twisted form.
"""

import numpy as np

from wfk.checks import CheckContext
from wfk.cli import manifold_from_manifest
from wfk.kenmotsu import build_twisted_product


def audit(label, m, points):
    print(f"\n{label} (dim {m.dim}, inferred beta at origin: "
          f"{m.beta:+.3f})")
    for p in points:
        residuals = CheckContext(m).group_reports("twisted", m.at(p))
        rel = ", ".join(f"{cid} {r:.1e}" for cid, r in residuals.items())
        print(f"  p = {np.round(p, 3)}: {rel}")


def main():
    rng = np.random.default_rng(1)

    # flat plane fiber, one t-direction, exponential twist
    m1 = manifold_from_manifest(build_twisted_product([1.0], 1, "exp(x3)"))[0]
    audit("exponential twist over a flat plane", m1,
          [rng.uniform(-0.5, 0.5, 3) for _ in range(2)])
    k = CheckContext(m1).group_reports("kenmotsu", m1.at(rng.uniform(-0.5, 0.5, 3)))
    print(f"  nabla-f residual: {k['kenmotsu.12']:.1e}")

    # two rotation factors with different scales: a genuinely weak structure
    m2 = manifold_from_manifest(build_twisted_product([1.0, 2.0], 2, "exp(x5+x6)"))[0]
    q_eigs = np.linalg.eigvalsh(m2.at(np.zeros(6)).Q)
    audit("two-factor fiber", m2, [rng.uniform(-0.5, 0.5, 6) for _ in range(2)])
    print(f"  Q eigenvalues: {np.round(q_eigs, 6)}")

    # sigma depending on a fiber coordinate: still a twisted product,
    # but no longer a constant-coefficient structure
    m3 = manifold_from_manifest(build_twisted_product([1.0], 1, "exp(x3+x1^2)"))[0]
    audit("fiber-dependent twist", m3, [rng.uniform(-0.5, 0.5, 3) for _ in range(2)])


if __name__ == "__main__":
    main()
