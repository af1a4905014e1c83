"""Oracle for `iso_class` by forward substitution.

`iso_class` reads summand multiplicities off the upper unitriangular Hom
matrix G by integer forward substitution.  The reference below is the
earlier rational version: it solves hom(M, M(beta_l)) = sum_k n_k G[k][l]
over Q by reducing an augmented matrix, and checks that the solution is a
non-negative integer vector.  Both must agree on every partition with
|nu| <= 4 of A2, A3, A4 and two orientations of D4, over Q and three finite
fields, and on every sink and source reflection of each such module.  The
reference builds its own G from the modules over the module's field, so it
also checks that G over each field equals `hom_matrix`, which is read off the
Euler form.

`iso_class` reads the multiplicity of each vertex's last root off the dims,
since M(beta) there is the injective I(j).  The last roots are checked here
on every orientation of A2-A5, D4-D6 and E6 against the dimension vectors of
the injectives, counted by paths (dim I(j)_i is the number of paths from i to
j, at most one in a tree), and the shortcut hom(M, I(j)) = dim M_j against
`hom_dim` on every partition with |nu| <= 4 of A3, A4 and the D4 star.
`iso_class` also skips the roots that do not fit into what is left of the
dims: it must call `hom_dim` only on indecomposables no larger than M, and
still recover every partition with |nu| <= 4 of linear D5 and with
|nu| <= 3 of two E6 orientations, over F_2 and Q.

Its two guards, a negative multiplicity and dims left over, are reached
directly: a Hom count one off at a single root of a D4 sum trips them, and
so do two misread last roots.

`hom_matrix` itself is checked against `hom_dim` over the indecomposables
over Q on every orientation of A3-A5, D4 and D5, eight each of D6 and E6 and
linear E7 (63^2 Hom systems), and recomputed with `hom_dim` and `all_indecomposables` made to raise.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from fractions import Fraction

import pytest

from quiver_orders import reps
from quiver_orders.convex_order import adapted_order
from quiver_orders.errors import VerificationError
from quiver_orders.fields import RATIONALS, galois_field
from quiver_orders.geometry import default_test_nus
from quiver_orders.kostant import KostantPartition, enumerate_kp
from quiver_orders.linalg import rref
from quiver_orders.quivers import Quiver, linear_quiver, quiver, sinks, sources
from quiver_orders.reps import (
    all_indecomposables,
    bgp_reflect_rep,
    hom_dim,
    hom_matrix,
    iso_class,
    rep_of_kp,
)
from oracles import orientations


@functools.cache
def rational_inverse(G) -> tuple[tuple[Fraction, ...], ...] | None:
    """The inverse of G^T over Q, by reducing the augmented matrix [G^T | I];
    None if G^T is singular.

    Reducing [G^T | h] applies the same row operations to h, so when G^T is
    invertible the rational solve of G^T x = h is x = (G^T)^-1 h.
    """
    N = len(G)
    aug = tuple(
        tuple(Fraction(G[k][l]) for k in range(N))
        + tuple(Fraction(int(l == j)) for j in range(N))
        for l in range(N)
    )
    R, pivots = rref(RATIONALS, aug)
    if pivots != tuple(range(N)):
        return None
    return tuple(row[N:] for row in R)


def reference_iso_class(M: reps.QuiverRep) -> KostantPartition:
    """Multiplicities by an exact rational solve of the Hom-count system
    hom(M, M(beta_l)) = sum_k n_k G[k][l]."""
    order = adapted_order(M.quiver)
    indecs = all_indecomposables(M.quiver, M.field)
    G = tuple(
        tuple(reps.hom_dim(indecs[bk], indecs[bl]) for bl in order.beta)
        for bk in order.beta
    )
    if G != hom_matrix(M.quiver):
        raise VerificationError(f"Hom matrix over {M.field!r} differs from hom_matrix")
    h = tuple(reps.hom_dim(M, indecs[b]) for b in order.beta)
    inv = rational_inverse(G)
    if inv is None:
        raise VerificationError("Hom-count system is singular")
    x = tuple(sum(e * v for e, v in zip(row, h) if e) for row in inv)
    counts = []
    for v in x:
        if v.denominator != 1 or v < 0:
            raise VerificationError(f"non-integral or negative multiplicity {v}")
        counts.append(int(v))
    lam = KostantPartition(order, tuple(counts))
    if lam.nu != M.dims:
        raise VerificationError("summand multiplicities do not add up to the dims")
    return lam


QUIVERS = {
    "A2": linear_quiver("A2"),
    "A3": linear_quiver("A3"),
    "A4": linear_quiver("A4"),
    "D4-star": quiver("D4", ((1, 2), (3, 2), (4, 2))),
    "D4-path": quiver("D4", ((1, 2), (2, 4), (3, 2))),
}
FIELDS = {
    "Q": RATIONALS,
    "F2": galois_field(2),
    "F3": galois_field(3),
    "GF4": galois_field(4),
}


def sweep(Q, F):
    """M(lam) for every partition with |nu| <= 4, then each module's sink
    and source reflections."""
    order = adapted_order(Q)
    modules = [
        rep_of_kp(lam, F)
        for nu in default_test_nus(Q.datum, 4)
        for lam in enumerate_kp(Q.datum, nu, order)
    ]
    turns = sinks(Q) + sources(Q)
    return modules + [bgp_reflect_rep(i, M) for M in modules for i in turns]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("label", QUIVERS)
def test_substitution_matches_rational_solve(label, field, monkeypatch):
    # both sides read Hom dimensions through one cache
    monkeypatch.setattr(reps, "hom_dim", functools.cache(hom_dim))
    modules = sweep(QUIVERS[label], FIELDS[field])
    assert modules
    for M in modules:
        assert iso_class(M) == reference_iso_class(M)


def test_hom_matrix_rejects_a_matrix_that_is_not_unitriangular(monkeypatch):
    order = adapted_order(QUIVERS["A3"])
    reversed_order = replace(order, beta=order.beta[::-1])
    monkeypatch.setattr(reps, "adapted_order", lambda Q: reversed_order)
    with pytest.raises(VerificationError, match="unitriangular"):
        reps.hom_matrix.__wrapped__(QUIVERS["A3"])


def injective_dims(Q: Quiver, j: int) -> tuple[int, ...]:
    """dim I(j): 1 at every vertex with a path to j (j included), else 0."""
    reach = {j}
    while True:
        more = {s for s, t in Q.arrows if t in reach} - reach
        if not more:
            return tuple(int(i in reach) for i in Q.datum.vertices())
        reach |= more


def _raise(*args):
    raise AssertionError("hom_matrix built a module")


@pytest.mark.parametrize("label", ["A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7"])
def test_euler_hom_matrix_equals_module_hom_dims(label, monkeypatch):
    every = [linear_quiver(label)] if label == "E7" else list(orientations(label))
    for Q in every if len(every) <= 16 else every[::4]:
        beta = adapted_order(Q).beta
        indecs = all_indecomposables(Q, RATIONALS)
        G = tuple(tuple(hom_dim(indecs[a], indecs[b]) for b in beta) for a in beta)
        assert hom_matrix(Q) == G, Q.arrows
        with monkeypatch.context() as m:
            m.setattr(reps, "hom_dim", _raise)
            m.setattr(reps, "all_indecomposables", _raise)
            assert reps.hom_matrix.__wrapped__(Q) == G, Q.arrows


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6"])
def test_injective_columns_one_per_vertex(label):
    for Q in orientations(label):
        order = adapted_order(Q)
        for j, l in enumerate(order.last_root):
            assert order.beta[l] == injective_dims(Q, j + 1), (Q.arrows, l, j)


@pytest.mark.parametrize("field", ["F2", "F3", "Q"])
@pytest.mark.parametrize("label", ["A3", "D4-star", "A4"])
def test_hom_into_injective_is_dim_at_its_vertex(label, field):
    Q, F = QUIVERS[label], FIELDS[field]
    order = adapted_order(Q)
    indecs = all_indecomposables(Q, F)
    for nu in default_test_nus(Q.datum, 4):
        for lam in enumerate_kp(Q.datum, nu, order):
            M = rep_of_kp(lam, F)
            for v, l in enumerate(order.last_root):
                assert hom_dim(M, indecs[order.beta[l]]) == M.dims[v], (lam.counts, l)


def test_hom_matrix_rejects_last_roots_that_are_not_injective(monkeypatch):
    order = adapted_order(QUIVERS["A3"])
    last = list(order.last_root)
    last[0], last[1] = last[1], last[0]
    swapped = replace(order, last_root=tuple(last))
    monkeypatch.setattr(reps, "adapted_order", lambda Q: swapped)
    with pytest.raises(VerificationError, match="injective"):
        reps.hom_matrix.__wrapped__(QUIVERS["A3"])


FITTING = {
    "D5": (linear_quiver("D5"), 4),
    "E6": (linear_quiver("E6"), 3),
    "E6-bipartite": (quiver("E6", ((3, 1), (4, 2), (3, 4), (5, 4), (5, 6))), 3),
}


@pytest.mark.parametrize("field", ["F2", "Q"])
@pytest.mark.parametrize("label", FITTING)
def test_iso_class_calls_hom_dim_only_on_roots_that_fit(label, field, monkeypatch):
    Q, size = FITTING[label]
    F = FIELDS[field]
    order = adapted_order(Q)
    calls = []

    def recording_hom_dim(M, N):
        calls.append((M.dims, N.dims))
        return hom_dim(M, N)

    monkeypatch.setattr(reps, "hom_dim", recording_hom_dim)
    for nu in default_test_nus(Q.datum, size):
        for lam in enumerate_kp(Q.datum, nu, order):
            assert iso_class(rep_of_kp(lam, F)) == lam
    assert calls
    for m, n in calls:
        assert all(x <= y for x, y in zip(n, m)), (m, n)


D4_SUM = (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0)  # four summands of linear D4
# (root index, error in its Hom count) pairs that the guards catch, for every
# root that is no vertex's last; one too many at roots 3-5 decomposes as
# another module with the same dims instead
OFF_BY_ONE = [(l, -1) for l in range(8)] + [(l, 1) for l in (0, 1, 2, 6, 7)]


@pytest.mark.parametrize(("l", "delta"), OFF_BY_ONE)
def test_an_off_by_one_hom_count_is_caught(l, delta, monkeypatch):
    Q = linear_quiver("D4")
    order = adapted_order(Q)
    assert l not in order.last_root
    M = rep_of_kp(KostantPartition(order, D4_SUM), RATIONALS)
    target = order.beta[l]
    asked = []

    def off_by_one(X, Y):
        asked.append(Y.dims)
        return hom_dim(X, Y) + (delta if Y.dims == target else 0)

    monkeypatch.setattr(reps, "hom_dim", off_by_one)
    with pytest.raises(VerificationError, match="negative multiplicity|do not add up to the dims"):
        iso_class(M)
    assert target in asked


def test_dims_left_over_are_caught(monkeypatch):
    # a Hom count only moves a residual that a later last root reads back,
    # so only misread last roots leave dims over: those of vertices 3 and 4
    # swapped, on the sum of every indecomposable of linear D4
    Q = linear_quiver("D4")
    order = adapted_order(Q)
    M = rep_of_kp(KostantPartition(order, (1,) * order.length), RATIONALS)
    hom_matrix(Q)
    last = list(order.last_root)
    last[2], last[3] = last[3], last[2]
    swapped = replace(order, last_root=tuple(last))
    monkeypatch.setattr(reps, "adapted_order", lambda Q: swapped)
    with pytest.raises(VerificationError, match="do not add up to the dims"):
        iso_class(M)
