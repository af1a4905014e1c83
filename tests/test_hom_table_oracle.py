"""Oracle for `reps.hom_table`.

`hom_table` reads every dim Hom(M, N) off one projective presentation of M;
`hom_dim` solves the full system of maps (f_i: M_i -> N_i) for each pair.
The two tables must agree on the indecomposables of every orientation of
A2-A5, D4 and D5, of every fourth orientation of D6 and E6, and of linear
E7, over Q, F_2 and F_3; on the direct sums `rep_of_kp(lam)` with |nu| <= 3
of linear A3 and the D4 star and on their images under `bgp_reflect_rep`
at every sink and source; on A1; and with zero-dimensional modules among the
rest.  The presentation is checked to be minimal against the Euler form:
P_0 has dim Hom(M, S_i) generators at i, and P_1 has
dim Ext^1(M, S_i) = dim Hom(M, S_i) - <dim M, alpha_i> relations there.
"""

from __future__ import annotations

import pytest

from quiver_orders.convex_order import adapted_order
from quiver_orders.fields import RATIONALS, galois_field
from quiver_orders.geometry import default_test_nus
from quiver_orders.kostant import enumerate_kp
from quiver_orders.quivers import linear_quiver, quiver, reflect_quiver, sinks, sources
from quiver_orders.reps import (
    _presentation,
    all_indecomposables,
    bgp_reflect_rep,
    hom_dim,
    hom_table,
    rep_of_kp,
    simple_rep,
    zero_rep,
)
from oracles import direct_sum, orientations

FIELDS = {"Q": RATIONALS, "F2": galois_field(2), "F3": galois_field(3)}
SUMS = {"A3-linear": linear_quiver("A3"), "D4-star": quiver("D4", ((1, 2), (3, 2), (4, 2)))}


def _assert_table(modules):
    expected = tuple(tuple(hom_dim(M, N) for N in modules) for M in modules)
    assert hom_table(modules) == expected, [M.dims for M in modules]


def _sums(Q, field):
    order = adapted_order(Q)
    return [
        rep_of_kp(lam, field)
        for nu in default_test_nus(Q.datum, 3)
        for lam in enumerate_kp(Q.datum, nu, order)
    ]


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7"])
def test_indecomposables(label, field):
    every = [linear_quiver(label)] if label == "E7" else list(orientations(label))
    for Q in every if len(every) <= 16 else every[::4]:
        _assert_table(list(all_indecomposables(Q, field).values()))


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("Q", SUMS.values(), ids=SUMS.keys())
def test_kp_sums_and_their_reflections(Q, field):
    sums = _sums(Q, field)
    _assert_table(sums)
    for i in sinks(Q) + sources(Q):
        images = [bgp_reflect_rep(i, M) for M in sums]
        assert images[0].quiver == reflect_quiver(i, Q)
        _assert_table(images)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_a1_and_zero_modules(field):
    A1 = linear_quiver("A1")
    S = simple_rep(A1, field, 1)
    assert hom_table([S, zero_rep(A1, field, (0,)), direct_sum(S, S)]) == (
        (1, 0, 2),
        (0, 0, 0),
        (2, 0, 4),
    )
    Q = SUMS["D4-star"]
    zero = zero_rep(Q, field, (0, 0, 0, 0))
    _assert_table([zero, *all_indecomposables(Q, field).values(), zero])
    assert hom_table([]) == ()


def test_mixed_fields_and_quivers_are_rejected():
    Q = SUMS["D4-star"]
    S = simple_rep(Q, RATIONALS, 1)
    with pytest.raises(ValueError):
        hom_table([S, simple_rep(Q, FIELDS["F2"], 1)])
    with pytest.raises(ValueError):
        hom_table([S, simple_rep(linear_quiver("D4"), RATIONALS, 1)])


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
@pytest.mark.parametrize("Q", [*SUMS.values(), linear_quiver("E6")], ids=[*SUMS, "E6-linear"])
def test_presentation_is_minimal(Q, field):
    modules = _sums(Q, field) if Q in SUMS.values() else list(all_indecomposables(Q, field).values())
    simples = [simple_rep(Q, field, i) for i in Q.datum.vertices()]
    for M in modules:
        gens, relations, _ = _presentation(M)
        for i, S in zip(Q.datum.vertices(), simples):
            top = hom_dim(M, S)
            euler = M.dims[i - 1] - sum(M.dims[s - 1] for s, t in Q.arrows if t == i)
            assert sum(v == i for v, _ in gens) == top, (M.dims, i)
            assert sum(k == i for k, _ in relations) == top - euler, (M.dims, i)
