"""Twisted products as a factory for the defining nabla-f condition.

A metric dt^2 (+) sigma^2 gbar over a flat almost-Hermitian fiber carries
the structure whenever sigma twists exponentially in the t-directions.
The demo builds three variants and audits the connection relations that
characterize the twisted form.
"""

import numpy as np

from wfk import expr as ex
from wfk.kenmotsu import (
    FiberSpec,
    build_twisted_product,
    kenmotsu_residual,
    twisted_product_audit,
)


def audit(label, m, points):
    print(f"\n{label} (dim {m.dim}, inferred beta at origin: "
          f"{m.beta:+.3f})")
    for p in points:
        residuals = twisted_product_audit(m.at(p))
        rel = ", ".join(f"{cid} {r:.1e}" for cid, r in residuals.items())
        print(f"  p = {np.round(p, 3)}: {rel}")


def main():
    rng = np.random.default_rng(1)

    # flat plane fiber, one t-direction, exponential twist
    sigma = ex.parse_expression("exp(x3)", 3)
    m1 = build_twisted_product(FiberSpec.flat_factors([1.0], 3), 1, sigma)
    audit("exponential twist over a flat plane", m1,
          [rng.uniform(-0.5, 0.5, 3) for _ in range(2)])
    print(f"  nabla-f residual: "
          f"{kenmotsu_residual(m1.at(rng.uniform(-0.5, 0.5, 3)))['kenmotsu.12']:.1e}")

    # two rotation factors with different scales: a genuinely weak structure
    sigma = ex.parse_expression("exp(x5+x6)", 6)
    m2 = build_twisted_product(FiberSpec.flat_factors([1.0, 2.0], 6), 2, sigma)
    q_eigs = np.linalg.eigvalsh(m2.at(np.zeros(6)).Q)
    audit("two-factor fiber", m2, [rng.uniform(-0.5, 0.5, 6) for _ in range(2)])
    print(f"  Q eigenvalues: {np.round(q_eigs, 6)}")

    # sigma depending on a fiber coordinate: still a twisted product,
    # but no longer a constant-coefficient structure
    sigma = ex.parse_expression("exp(x3+x1^2)", 3)
    m3 = build_twisted_product(FiberSpec.flat_factors([1.0], 3), 1, sigma)
    audit("fiber-dependent twist", m3, [rng.uniform(-0.5, 0.5, 3) for _ in range(2)])


if __name__ == "__main__":
    main()
