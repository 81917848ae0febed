"""Registry of named identity checks shared by the CLI and the test suite.

``CATALOGUE`` is the one table of checks: each id names its group, whose
runner calls the library function that produces the id, its default
tolerance (from :data:`~wfk.weakf.TOLERANCES`), whether it is an audit,
and what manifold data it requires.  Audit checks report discrepancies
without ever failing a run.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .kenmotsu import (
    IDENTITY_IDS,
    audit_identities,
    kenmotsu_residual,
    twisted_product_audit,
)
from .star_soliton import (
    SolitonData,
    contact_fit,
    corollary2_residual,
    gradient_soliton_residual,
    lemma2_audit,
    prop5_check,
    soliton_residual,
    star_symmetry_gate,
    theorem4_residual,
)
from .weakf import (
    TOLERANCES,
    ResidualReport,
    WeakFManifold,
    check_axioms,
    theorem1_check,
)

__all__ = ["CheckSpec", "CheckContext", "CATALOGUE", "applicable_ids", "run_check_ids"]


@dataclass(frozen=True)
class CheckSpec:
    group: str
    tolerance: float
    audit: bool = False
    requires: str = ""  # a key of _REQUIRES


# requirement -> whether a manifold and soliton provide what its checks need
_REQUIRES = {
    "": lambda m, sol: True,
    "beta": lambda m, sol: m.beta is not None and m.beta_is_constant,
    "sigma": lambda m, sol: m.sigma is not None and m.fiber_dim is not None,
    "soliton": lambda m, sol: sol is not None,
    "soliton_V": lambda m, sol: sol is not None and sol.V is not None,
    "soliton_v": lambda m, sol: sol is not None and sol.v is not None,
}


def _soliton(m, sol, p):
    verdict = soliton_residual(m, sol, p)
    pt = m.at(p).point
    return [
        ResidualReport.make("soliton.32", pt, verdict.residual),
        ResidualReport.make("soliton.33", pt, verdict.cross_residual),
    ]


def _grad(m, sol, p):
    verdict = gradient_soliton_residual(m, sol, p)
    res = max(verdict.residual, verdict.cross_residual)
    return [ResidualReport.make("grad.75", m.at(p).point, res)]


# group -> runner(manifold, soliton, point) returning the group's reports.
# Runners look the library functions up when called, so a function patched
# on this module (as the perfbench tracer does) is the one that runs.
_RUNNERS = {
    "axioms": lambda m, sol, p: check_axioms(m, p),
    "theorem1": lambda m, sol, p: theorem1_check(m, p),
    "kenmotsu": lambda m, sol, p: [kenmotsu_residual(m, p)],
    "identities": lambda m, sol, p: audit_identities(m, p),
    "twisted": lambda m, sol, p: twisted_product_audit(m, p),
    "star_def": lambda m, sol, p: [
        ResidualReport.make("star.def", m.at(p).point, max(star_symmetry_gate(m, p)))
    ],
    "thm4": lambda m, sol, p: theorem4_residual(m, p),
    "cor2": lambda m, sol, p: [corollary2_residual(m, p)],
    "soliton": _soliton,
    "grad": _grad,
    "prop5": lambda m, sol, p: [
        ResidualReport.make("prop5", m.at(p).point, prop5_check(sol.lam, sol.mu).gap)
    ],
    "contact": lambda m, sol, p: [
        ResidualReport.make("contact.65", m.at(p).point, contact_fit(m, sol.V, p)[1])
    ],
    "lemma2": lambda m, sol, p: lemma2_audit(m, sol, p),
}


def _specs(group: str, ids, requires: str = "", audit: bool = False):
    return {cid: CheckSpec(group, TOLERANCES[cid], audit, requires) for cid in ids}


CATALOGUE: dict[str, CheckSpec] = {
    **_specs(
        "axioms",
        (
            "axiom.5", "axiom.6", "axiom.fxi", "axiom.etaf", "axiom.etaQ",
            "axiom.Qf", "axiom.Qxi", "axiom.dual", "axiom.f3",
        ),
    ),
    **_specs("theorem1", ("n1", "deta", "dphi"), "beta"),
    **_specs("kenmotsu", ("kenmotsu.12",), "beta"),
    **_specs("identities", [f"id.{i}" for i in IDENTITY_IDS], "beta"),
    **_specs("twisted", ("twisted.i", "twisted.ii", "twisted.iii"), "sigma"),
    **_specs("star_def", ("star.def",)),
    **_specs("thm4", ("thm4.28", "thm4.29"), "beta"),
    **_specs("cor2", ("cor2",), "beta"),
    **_specs("soliton", ("soliton.32", "soliton.33"), "soliton_V"),
    **_specs("grad", ("grad.75",), "soliton_v"),
    **_specs("prop5", ("prop5",), "soliton"),
    **_specs("contact", ("contact.65",), "soliton_V"),
    **_specs(
        "lemma2", ("lemma2.42", "lemma2.34", "lemma2.35"), "soliton_V", audit=True
    ),
}


@dataclass
class CheckContext:
    """A manifold plus optional soliton data, with per-point group caching."""

    manifold: WeakFManifold
    soliton: SolitonData | None = None
    _cache: dict = field(default_factory=dict)  # point -> group -> reports

    def _satisfied(self, requires: str) -> bool:
        return _REQUIRES[requires](self.manifold, self.soliton)

    def group_reports(self, group: str, p) -> list[ResidualReport]:
        groups = self._cache.setdefault(tuple(np.asarray(p, dtype=float).tolist()), {})
        hit = groups.get(group)
        if hit is None:
            hit = groups[group] = self._run_group(group, p)
        return hit

    def release(self, p) -> None:
        """Drop every cached report, structure and geometry at p."""
        self._cache.pop(tuple(np.asarray(p, dtype=float).tolist()), None)
        self.manifold.release(p)

    def _run_group(self, group: str, p) -> list[ResidualReport]:
        return _RUNNERS[group](self.manifold, self.soliton, p)


def applicable_ids(ctx: CheckContext) -> list[str]:
    """Catalogue ids runnable on this context, in catalogue order."""
    return [
        cid for cid, spec in CATALOGUE.items() if ctx._satisfied(spec.requires)
    ]


def run_check_ids(
    ctx: CheckContext, ids, points, overrides: dict[str, float] | None = None
) -> list[ResidualReport]:
    """Run the named checks at each point, applying tolerance overrides.

    A repeated id runs once, at its first position.  The fields are jetted
    for all points at once; each point's caches are released when it is done.
    """
    overrides = overrides or {}
    ids = list(dict.fromkeys(ids))
    unknown = [i for i in ids if i not in CATALOGUE]
    if unknown:
        raise KeyError(f"unknown check ids: {unknown}")
    blocked = [i for i in ids if not ctx._satisfied(CATALOGUE[i].requires)]
    if blocked:
        raise ValueError(
            f"checks {blocked} need data this manifest does not provide "
            "(constant beta, twisted-product sigma, or a soliton block)"
        )
    keyed: list[tuple[str, int, ResidualReport]] = []
    for idx, st in enumerate(ctx.manifold.structures(points)):
        for cid in ids:
            for r in ctx.group_reports(CATALOGUE[cid].group, st.point):
                if r.check_id != cid:
                    continue
                if cid in overrides:
                    tol = overrides[cid]
                    r = replace(r, tolerance=tol, passed=r.residual <= tol)
                keyed.append((cid, idx, r))
        ctx.release(st.point)
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [r for _, _, r in keyed]
