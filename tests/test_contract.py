"""``geometry.contract`` against ``np.einsum``, and the rule that keeps every
summed contraction of ``src/wfk`` on it (or on ``@``).

The library writes a matrix product with ``@`` and every other contraction
that sums an index shared by two operands with ``contract``, which BLAS
runs; ``np.einsum`` is left the permutations, traces, diagonals and outer
products.  The scans below read the library's source with ``ast``; ``contract``
itself is tested on a frozen set of subscripts, and every call in the
library must be one of them up to a renaming of its letters.
"""
from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

import wfk
from wfk.geometry import contract

SRC = pathlib.Path(wfk.__file__).parent


def _calls(name: str):
    """(file:line, first argument) of every call of ``name`` or ``np.name`` in src/wfk."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            called = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(node, ast.Call) and called == name:
                arg = node.args[0] if node.args else None
                value = arg.value if isinstance(arg, ast.Constant) else None
                found.append((f"{path.name}:{node.lineno}", value))
    return found


def _summed(subscripts: str) -> set[str]:
    """Indices that two or more operands share and the output drops."""
    operands, out = subscripts.replace("...", "").split("->")
    terms = operands.split(",")
    return {x for x in "".join(terms) if sum(x in t for t in terms) > 1 and x not in out}


def test_no_einsum_sums_an_index_shared_by_two_operands():
    calls = _calls("einsum")
    assert calls, "the scan found no np.einsum call at all"
    unreadable = [where for where, sub in calls if not isinstance(sub, str)]
    assert not unreadable, f"einsum subscripts that are not a literal: {unreadable}"
    summing = [(where, sub) for where, sub in calls if _summed(sub)]
    assert not summing, f"write these with contract or @: {summing}"


# The cases contract is tested on: the subscripts of the library's calls,
# frozen, so that re-lettering a call neither adds nor removes a test.
CONTRACTIONS = (
    "...ab,...ab->...", "...ab,...bjki->...ajki", "...abi,...bjk->...ajki",
    "...abin,...abk->...ikn", "...ai,...abin->...bn", "...ai,...bik->...abk",
    "...am,...mbk->...abk", "...amk,...mb->...abk", "...b,...bjkn->...jkn",
    "...bjki,...ibn->...jkn", "...ia,...abn->...ibn", "...ia,...ia->...",
    "...ia,...iajk->...jk", "...ia,...ib->...ab", "...ia,...lijc->...lajc",
    "...iab,...ik->...kab", "...ibj,...bikn->...jkn", "...ijk,...k->...ij",
    "...ijkl,...l->...ijk", "...ijklm,...m->...ijkl", "...ijm,...mikn->...jkn",
    "...ijmn,...mik->...jkn", "...ik,...ia->...ka", "...ikab,...jb->...ijka",
    "...ja,...ika->...ijk", "...jb,...kaj->...kab", "...jb,...lajc->...labc",
    "...ji,...i->...j", "...jk,...jk->...", "...jkia,...ia->...jk",
    "...k,...ijk->...ij", "...k,...ki->...i", "...ka,...abm->...kbm",
    "...kab,...ib->...ika", "...kabc,...ic->...ikab", "...kam,...im->...ika",
    "...kbm,...bl->...klm", "...kcm,...mj->...kjc", "...kij,...k->...ij",
    "...kj,...ki->...ij", "...kja,...ia->...ikj", "...kja,...ij->...ika",
    "...kja,...jb->...kba", "...kjm,...m->...kj", "...kjm,...mi->...kji",
    "...kjmi,...m->...kji", "...kl,...l->...k", "...kl,...lij->...kij",
    "...kl,...lijm->...kijm", "...klm,...lij->...kijm", "...km,...im->...ik",
    "...km,...im->...ki", "...km,...mab->...kab", "...km,...mjn->...kjn",
    "...kmij,...m->...kij", "...kmn,...mj->...kjn", "...l,...ljk->...jk",
    "...la,...aijk->...lijk", "...la,...ajki->...lijk", "...labm,...im->...ilab",
    "...lajc,...ij->...ilac", "...lajk,...ai->...lijk", "...lak,...ljk->...aj",
    "...liak,...aj->...lijk", "...lija,...ak->...lijk", "...lim,...mjk->...lijk",
    "...lji,...lik->...jk", "...lm,...mabc->...labc", "...ma,...mb->...ab",
    "...ma,...mc->...ca", "...mab,...im->...iab", "...mb,...mc->...bc",
    "...mcj,...km->...kjc", "...mjk,...mn->...jkn", "...n,...n->...",
    "...pa,...a->...p",
)


def test_every_contract_call_has_literal_subscripts():
    calls = _calls("contract")
    assert calls, "the scan found no contract call at all"
    assert all(sub is not None for _, sub in calls)


def _canonical(subscripts: str) -> str:
    """``subscripts`` with its letters renamed a, b, c, ... in order of first use."""
    names: dict = {}
    return "".join(
        names.setdefault(x, chr(ord("a") + len(names))) if x.isalpha() else x
        for x in subscripts
    )


def test_every_contract_call_is_a_frozen_case():
    frozen = {_canonical(sub) for sub in CONTRACTIONS}
    new = [
        (where, sub) for where, sub in _calls("contract")
        if sub is not None and _canonical(sub) not in frozen
    ]
    assert not new, f"add these contractions to CONTRACTIONS: {new}"


def _operands(subscripts: str, batch: tuple, sizes: dict, rng):
    operands = subscripts.split("->")[0].replace("...", "").split(",")
    return [
        rng.standard_normal(batch + tuple(sizes[x] for x in term)) for term in operands
    ]


@pytest.mark.parametrize("batch", [(), (1,), (3,)], ids=["point", "one", "chunk"])
@pytest.mark.parametrize("subscripts", CONTRACTIONS)
def test_contract_matches_einsum(subscripts, batch):
    rng = np.random.default_rng(sum(map(ord, subscripts)))
    letters = sorted(set(subscripts) - set(".,->"))
    # a different extent per index, so a swapped axis cannot go unseen
    sizes = {x: 2 + k for k, x in enumerate(letters)}
    a, b = _operands(subscripts, batch, sizes, rng)
    got, want = contract(subscripts, a, b), np.einsum(subscripts, a, b)
    assert got.shape == want.shape
    # rounding of a sum is relative to the sum of the magnitudes of its terms
    scale = np.einsum(subscripts, np.abs(a), np.abs(b))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("subscripts", [s for s in CONTRACTIONS if _summed(s)])
def test_contract_over_an_empty_summed_axis_is_zero(subscripts):
    # d3g's derivative axes run over the metric's support, which is empty
    # when the metric is constant
    letters = sorted(set(subscripts) - set(".,->"))
    sizes = {x: 2 + k for k, x in enumerate(letters)}
    sizes[min(_summed(subscripts))] = 0
    a, b = _operands(subscripts, (2,), sizes, np.random.default_rng(0))
    got = contract(subscripts, a, b)
    assert got.shape == np.einsum(subscripts, a, b).shape
    assert not got.any()


def test_contract_raises_on_overflow_under_errstate():
    # run_check_ids turns a FloatingPointError into an InputError; np.einsum's own sum
    # loops overflow to inf without raising
    big = np.full((2, 3, 3), 1e200)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            contract("...ij,...jk->...ik", big, big)
