"""Registry of named identity checks shared by the CLI and the test suite.

``CATALOGUE`` is the one table of checks: each id names its group, whose
runner calls the library function that produces the tensor that must vanish
for the id, its default tolerance, whether it is an audit, and what
manifold data it requires.  The tolerances are stated here and nowhere
else.  ``CheckContext._run_group`` measures every tensor with
``tensor_residual``, so running checks yields residuals only; the CLI's
report writer compares them with the tolerances.  Audit checks report
discrepancies without ever failing a run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import InputError
from .kenmotsu import (
    IDENTITY_IDS,
    audit_identities,
    kenmotsu_residual,
    twisted_product_audit,
)
from .star_soliton import (
    contact_fit,
    corollary2_residual,
    gradient_soliton_residual,
    lemma2_audit,
    soliton_residual,
    star_symmetry_gate,
    theorem4_residual,
)
from .weakf import StructureAtPoint, WeakFManifold, check_axioms, tensor_residual, theorem1_check

__all__ = ["CheckSpec", "CheckContext", "CATALOGUE", "applicable_ids", "run_check_ids"]


@dataclass(frozen=True)
class CheckSpec:
    group: str
    tolerance: float
    audit: bool = False
    requires: tuple[str, ...] = ()  # keys of _REQUIRES


# requirement -> whether a model provides what its checks need
_REQUIRES = {
    "beta": lambda m: m.beta is not None,
    "sigma": lambda m: m.sigma is not None,
    "soliton": lambda m: m.soliton is not None,
    "soliton_V": lambda m: m.soliton is not None and m.soliton.V is not None,
    "soliton_v": lambda m: m.soliton is not None and m.soliton.v is not None,
}


# group -> runner(structure) returning the group's tensors that must vanish,
# {id: tensor}, each with the structure's batch axes in front, or one value
# for the whole run (prop5).  Runners look the library functions up when
# called, so a function patched on this module (as the perfbench tracer does)
# is the one that runs.
_RUNNERS = {
    "axioms": lambda st: check_axioms(st),
    "theorem1": lambda st: theorem1_check(st),
    "kenmotsu": lambda st: kenmotsu_residual(st),
    "identities": lambda st: audit_identities(st),
    "twisted": lambda st: twisted_product_audit(st),
    "star_def": lambda st: star_symmetry_gate(st),
    "thm4": lambda st: theorem4_residual(st),
    "cor2": lambda st: corollary2_residual(st),
    "soliton": lambda st: soliton_residual(st),
    "grad": lambda st: gradient_soliton_residual(st),
    # Proposition 5: the constants of a genuine soliton satisfy lam + mu = 0
    "prop5": lambda st: {"prop5": st.m.soliton.lam + st.m.soliton.mu},
    "contact": lambda st: contact_fit(st),
    "lemma2": lambda st: lemma2_audit(st),
}


def _specs(group: str, tolerance: float, ids, *requires: str, audit: bool = False):
    return {cid: CheckSpec(group, tolerance, audit, requires) for cid in ids}


# The default tolerance of each id.  The identities (id.*, including the
# third-order 21-23) come from exact jets and carry rounding error only.  The
# lemma2 values are audit thresholds for report-only comparisons, not error
# bounds.
CATALOGUE: dict[str, CheckSpec] = {
    **_specs(
        "axioms", 1e-8,
        (
            "axiom.5", "axiom.6", "axiom.fxi", "axiom.etaf", "axiom.etaQ",
            "axiom.Qf", "axiom.Qxi", "axiom.dual", "axiom.f3",
        ),
    ),
    **_specs("theorem1", 1e-6, ("n1", "deta", "dphi"), "beta"),
    **_specs("kenmotsu", 1e-8, ("kenmotsu.12",), "beta"),
    **_specs("identities", 1e-8, [f"id.{i}" for i in IDENTITY_IDS], "beta"),
    **_specs("twisted", 1e-6, ("twisted.i", "twisted.ii", "twisted.iii"), "sigma"),
    **_specs("star_def", 1e-6, ("star.def",)),
    **_specs("thm4", 1e-6, ("thm4.28", "thm4.29"), "beta"),
    **_specs("cor2", 1e-6, ("cor2",), "beta"),
    **_specs("soliton", 1e-6, ("soliton.32", "soliton.33"), "beta", "soliton_V"),
    **_specs("grad", 1e-6, ("grad.75",), "beta", "soliton_v"),
    **_specs("prop5", 1e-5, ("prop5",), "soliton"),
    **_specs("contact", 1e-6, ("contact.65",), "soliton_V"),
    **_specs("lemma2", 1e-4, ("lemma2.42",), "beta", "soliton_V", audit=True),
    **_specs(
        "lemma2", 1e-3, ("lemma2.34", "lemma2.35"), "beta", "soliton_V", audit=True
    ),
}


@dataclass
class CheckContext:
    """The model a run checks; a class because the benchmark tracer patches
    :meth:`group_reports` and :meth:`_run_group` to count group calls."""

    manifold: WeakFManifold

    def _satisfied(self, requires: tuple[str, ...]) -> bool:
        return all(_REQUIRES[r](self.manifold) for r in requires)

    def group_reports(self, group: str, st: StructureAtPoint) -> dict:
        """The residuals of one group at a structure of this context's
        manifold, ``{id: residual}``, one residual a point."""
        return self._run_group(group, st)

    def _run_group(self, group: str, st: StructureAtPoint) -> dict:
        return {cid: tensor_residual(t, st.lead) for cid, t in _RUNNERS[group](st).items()}


def applicable_ids(ctx: CheckContext) -> list[str]:
    """Catalogue ids runnable on this context, in catalogue order."""
    return [
        cid for cid, spec in CATALOGUE.items() if ctx._satisfied(spec.requires)
    ]


def run_check_ids(ctx: CheckContext, ids, points) -> dict[str, np.ndarray]:
    """The residuals of the named checks at each point: ``{id: (P,) array}``
    in point order, for the ids in the order given.

    A repeated id runs once.  Each needed group runs once on the structure
    of each chunk of points (``WeakFManifold.structures``).  Each input is
    bounded alone, but extremes of several together can still leave the
    float range, which is bad input too: an ``InputError`` naming the check
    group, or the building of the structure, and the chunk's first point.
    """
    ids = list(dict.fromkeys(ids))
    blocked = [i for i in ids if not ctx._satisfied(CATALOGUE[i].requires)]
    if blocked:
        raise InputError(
            f"checks {blocked} need data this manifest does not provide "
            "(beta, twisted-product sigma, or a soliton block)"
        )
    groups = dict.fromkeys(CATALOGUE[cid].group for cid in ids)
    # a residual no runner wrote stays NaN, which fails any tolerance
    table = {cid: np.full(len(points), np.nan) for cid in ids}
    start, group = 0, None  # where the run is, for the overflow error
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for st in ctx.manifold.structures(points):
                stop = start + len(st.point)
                for group in groups:
                    for cid, residual in ctx.group_reports(group, st).items():
                        if cid in table:
                            table[cid][start:stop] = residual  # a per-run value fills the chunk
                start, group = stop, None
    except FloatingPointError as err:
        stage = "building the structure" if group is None else f"check group {group!r}"
        first = np.asarray(points, dtype=float)[start].tolist()
        raise InputError(
            f"the inputs are too large together: {err} ({stage}, chunk from point {first})"
        ) from err
    return table
