"""Registry of named identity checks shared by the CLI and the test suite.

``CATALOGUE`` is the one table of checks: each id names its group, whose
runner calls the library function that produces the id's residual, its
default tolerance (from :data:`~wfk.weakf.TOLERANCES`), whether it is an
audit, and what manifold data it requires.  Running checks yields residuals
only; the CLI's report writer compares them with the tolerances.  Audit
checks report discrepancies without ever failing a run.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    soliton_residual,
    star_symmetry_gate,
    theorem4_residual,
)
from .weakf import (
    TOLERANCES,
    StructureAtPoint,
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
    requires: tuple[str, ...] = ()  # keys of _REQUIRES


# requirement -> whether a manifold and soliton provide what its checks need
_REQUIRES = {
    "beta": lambda m, sol: m.beta is not None,
    "sigma": lambda m, sol: m.sigma is not None,
    "soliton": lambda m, sol: sol is not None,
    "soliton_V": lambda m, sol: sol is not None and sol.V is not None,
    "soliton_v": lambda m, sol: sol is not None and sol.v is not None,
}


# group -> runner(structure, soliton) returning the group's residuals,
# {id: residual}, each with the structure's batch shape or one value for the
# whole run (prop5).  Runners look the library functions up when called, so a
# function patched on this module (as the perfbench tracer does) is the one
# that runs.
_RUNNERS = {
    "axioms": lambda st, sol: check_axioms(st),
    "theorem1": lambda st, sol: theorem1_check(st),
    "kenmotsu": lambda st, sol: kenmotsu_residual(st),
    "identities": lambda st, sol: audit_identities(st),
    "twisted": lambda st, sol: twisted_product_audit(st),
    "star_def": lambda st, sol: star_symmetry_gate(st),
    "thm4": lambda st, sol: theorem4_residual(st),
    "cor2": lambda st, sol: corollary2_residual(st),
    "soliton": lambda st, sol: soliton_residual(st, sol),
    "grad": lambda st, sol: gradient_soliton_residual(st, sol),
    # Proposition 5: the constants of a genuine soliton satisfy lam + mu = 0
    "prop5": lambda st, sol: {"prop5": abs(sol.lam + sol.mu)},
    "contact": lambda st, sol: {"contact.65": contact_fit(st, sol.V)[1]},
    "lemma2": lambda st, sol: lemma2_audit(st, sol),
}


def _specs(group: str, ids, *requires: str, audit: bool = False):
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
    **_specs("soliton", ("soliton.32", "soliton.33"), "beta", "soliton_V"),
    **_specs("grad", ("grad.75",), "beta", "soliton_v"),
    **_specs("prop5", ("prop5",), "soliton"),
    **_specs("contact", ("contact.65",), "soliton_V"),
    **_specs(
        "lemma2", ("lemma2.42", "lemma2.34", "lemma2.35"), "beta", "soliton_V",
        audit=True,
    ),
}


@dataclass
class CheckContext:
    """A manifold plus optional soliton data."""

    manifold: WeakFManifold
    soliton: SolitonData | None = None

    def _satisfied(self, requires: tuple[str, ...]) -> bool:
        return all(_REQUIRES[r](self.manifold, self.soliton) for r in requires)

    def group_reports(self, group: str, st: StructureAtPoint) -> dict:
        """The residuals of one group at a structure of this context's
        manifold, ``{id: residual}``."""
        return self._run_group(group, st)

    def _run_group(self, group: str, st: StructureAtPoint) -> dict:
        return _RUNNERS[group](st, self.soliton)


def applicable_ids(ctx: CheckContext) -> list[str]:
    """Catalogue ids runnable on this context, in catalogue order."""
    return [
        cid for cid, spec in CATALOGUE.items() if ctx._satisfied(spec.requires)
    ]


def run_check_ids(ctx: CheckContext, ids, points) -> dict[str, np.ndarray]:
    """The residuals of the named checks at each point: ``{id: (P,) array}``
    in point order, for the ids in the order given.

    A repeated id runs once.  Each needed group runs once on the structure
    of each chunk of points (``WeakFManifold.structures``).
    """
    ids = list(dict.fromkeys(ids))
    unknown = [i for i in ids if i not in CATALOGUE]
    if unknown:
        raise KeyError(f"unknown check ids: {unknown}")
    blocked = [i for i in ids if not ctx._satisfied(CATALOGUE[i].requires)]
    if blocked:
        raise ValueError(
            f"checks {blocked} need data this manifest does not provide "
            "(beta, twisted-product sigma, or a soliton block)"
        )
    groups = dict.fromkeys(CATALOGUE[cid].group for cid in ids)
    # a residual no runner wrote stays NaN, which fails any tolerance
    table = {cid: np.full(len(points), np.nan) for cid in ids}
    start = 0
    for st in ctx.manifold.structures(points):
        stop = start + len(st.point)
        for group in groups:
            try:
                residuals = ctx.group_reports(group, st)
            except FloatingPointError as err:  # raised under np.errstate
                raise FloatingPointError(
                    f"{err} (check group {group!r}, chunk from point "
                    f"{st.point[0].tolist()})"
                ) from err
            for cid, residual in residuals.items():
                if cid in table:
                    table[cid][start:stop] = residual  # a per-run value fills the chunk
        start = stop
    return table
