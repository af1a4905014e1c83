"""Oracle for the indecomposables built by the Coxeter functor.

`all_indecomposables` builds the first n modules by walking a sink sequence
c backwards from a simple, and every later one by the Coxeter functor (the
reflections at c_n down to c_1) applied to the module before it in its
orbit.  The reference below is the earlier build, kept verbatim: it walks
the canonical adapted word backwards from a fresh simple for every root, at
k - 1 reflections for beta_k.  Both must give the same modules, entry for
entry and type for type, in the same key order.

The remaining tests count the reflections of one build and drive each of
the build's checks to fail.
"""

from __future__ import annotations

import pytest

from quiver_orders import reps
from quiver_orders.convex_order import adapted_order
from quiver_orders.errors import VerificationError
from quiver_orders.fields import RATIONALS, galois_field
from quiver_orders.quivers import Quiver, linear_quiver, reflect_quiver
from quiver_orders.reps import (
    QuiverRep,
    all_indecomposables,
    bgp_reflect_rep,
    hom_dim,
    simple_rep,
    zero_rep,
)
from quiver_orders.root_system import Root, num_positive_roots, reflect_root
from oracles import orientations


def reference_indecomposables(Q: Quiver, field) -> dict[Root, QuiverRep]:
    """The indecomposable representation for each positive root, by walking
    the canonical adapted word backwards with reflection functors."""
    order = adapted_order(Q)
    word = order.word
    chain = [Q]
    for m in range(len(word) - 1):
        chain.append(reflect_quiver(word[m], chain[-1]))
    datum = Q.datum
    out: dict[Root, QuiverRep] = {}
    for k in range(len(word)):
        X = simple_rep(chain[k], field, word[k])
        expected = datum.alpha(word[k])
        for m in range(k - 1, -1, -1):
            X = bgp_reflect_rep(word[m], X)
            expected = reflect_root(datum, word[m], expected)
            if X.dims != expected:
                raise VerificationError(
                    f"reflection walk for beta_{k+1} produced dims {X.dims}, expected {expected}"
                )
        if X.dims != order.beta[k]:
            raise VerificationError("walk did not land on the expected root")
        if hom_dim(X, X) != 1:
            raise VerificationError(f"endomorphism dim of M({order.beta[k]}) is not 1")
        out[order.beta[k]] = X
    return out


FIELDS = {"Q": RATIONALS, "F2": galois_field(2), "GF4": galois_field(4)}
# every orientation up to D5, a fixed few beyond (0 is the linear quiver)
SAMPLED = {"D6": (0, 11, 22), "E6": (0, 11, 22), "E7": (0, 42), "E8": (85,)}
CASES = [
    (label, k)
    for label in ("A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8")
    for k in SAMPLED.get(label, range(len(orientations(label))))
]


def fingerprint(table: dict[Root, QuiverRep]) -> str:
    return repr([(beta, M.quiver, M.mats) for beta, M in table.items()])


@pytest.mark.parametrize(("label", "k"), CASES, ids=[f"{label}-{k}" for label, k in CASES])
def test_coxeter_build_matches_the_walk(label, k):
    Q = orientations(label)[k]
    for F in FIELDS.values():
        assert fingerprint(all_indecomposables(Q, F)) == fingerprint(reference_indecomposables(Q, F))


@pytest.mark.parametrize("label", ["D4", "D6", "E6", "E7", "E8"])
def test_a_build_takes_at_most_n_reflections_per_root(monkeypatch, label):
    Q = linear_quiver(label)
    n, N = Q.datum.n, num_positive_roots(Q.datum)
    calls = 0
    real = reps.bgp_reflect_rep

    def counting(i, M):
        nonlocal calls
        calls += 1
        return real(i, M)

    monkeypatch.setattr(reps, "bgp_reflect_rep", counting)
    all_indecomposables.__wrapped__(Q, galois_field(2))
    assert 0 < calls <= N * n
    assert calls < N * (N - 1) // 2  # the walk's count


# linear D4 makes 6 first-round reflections, then the Coxeter steps
@pytest.mark.parametrize("bad_call", [0, 6])
def test_wrong_dims_from_a_reflection_are_caught(monkeypatch, bad_call):
    calls = 0

    def wrong(i, M):
        nonlocal calls
        Y = bgp_reflect_rep(i, M)
        calls += 1
        if calls - 1 != bad_call:
            return Y
        return zero_rep(Y.quiver, Y.field, (Y.dims[0] + 1,) + Y.dims[1:])

    monkeypatch.setattr(reps, "bgp_reflect_rep", wrong)
    with pytest.raises(VerificationError, match="produced dims"):
        all_indecomposables.__wrapped__(linear_quiver("D4"), RATIONALS)
    assert calls == bad_call + 1


def test_orbits_that_stop_early_are_caught(monkeypatch):
    monkeypatch.setattr(reps, "is_positive", lambda v: False)
    with pytest.raises(VerificationError, match="reach 4 roots, not the 12"):
        all_indecomposables.__wrapped__(linear_quiver("D4"), RATIONALS)


def test_a_root_reached_twice_is_caught(monkeypatch):
    real = reps._coxeter_orbits

    def twice(Q, F):
        modules = list(real(Q, F))
        return modules + modules[-1:]

    monkeypatch.setattr(reps, "_coxeter_orbits", twice)
    with pytest.raises(VerificationError, match="twice"):
        all_indecomposables.__wrapped__(linear_quiver("D4"), RATIONALS)


def test_a_decomposable_module_is_caught(monkeypatch):
    monkeypatch.setattr(reps, "hom_dim", lambda M, N: 2)
    with pytest.raises(VerificationError, match="endomorphism dim"):
        all_indecomposables.__wrapped__(linear_quiver("D4"), RATIONALS)
