"""The value base of the package's records keeps the semantics of the frozen
dataclasses it replaced: field equality and hash, no assignment, checks on
replace, the dataclass repr and the ledger's JSON text."""

from __future__ import annotations

import pytest

from quiver_orders.convex_order import adapted_order, build_order
from quiver_orders.fields import RATIONALS
from quiver_orders.kostant import KostantPartition, OrientationLedger
from quiver_orders.quivers import Quiver, linear_quiver, quiver
from quiver_orders.reps import simple_rep
from quiver_orders.root_system import CartanDatum, Value, cartan_datum


def test_equal_values_are_equal_with_equal_hashes():
    a, b = quiver("A3", ((1, 2), (3, 2))), quiver("A3", [(1, 2), (3, 2)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.datum, a.arrows))
    assert a != quiver("A3", ((2, 1), (3, 2)))
    assert len({a, b, linear_quiver("A3")}) == 2


class _Arrows(Value):
    """A record of another type with the same fields as Quiver."""

    _fields = ("datum", "arrows")

    def __init__(self, datum, arrows) -> None:
        self.__dict__.update(datum=datum, arrows=arrows)


def test_a_value_never_equals_another_type():
    Q = linear_quiver("A2")
    assert Q != (Q.datum, Q.arrows)
    assert (Q.datum, Q.arrows) != Q
    twin = _Arrows(Q.datum, Q.arrows)
    assert twin == _Arrows(Q.datum, Q.arrows)
    assert Q != twin and twin != Q
    assert Q.__eq__(twin) is NotImplemented and twin.__eq__(Q) is NotImplemented
    order = adapted_order(Q)
    kp = KostantPartition(order, (0,) * order.length)
    assert Q != kp and kp != Q


def test_fields_cannot_be_assigned_or_deleted():
    Q = linear_quiver("A2")
    with pytest.raises(AttributeError):
        Q.arrows = ()
    with pytest.raises(AttributeError):
        Q.extra = 1
    with pytest.raises(AttributeError):
        del Q.datum
    assert Q.arrows == ((1, 2),)


def test_replace_runs_the_checks_again():
    Q = linear_quiver("A2")
    M = simple_rep(Q, RATIONALS, 1)
    assert M.replace(dims=(1, 1), mats=(((RATIONALS.one,),),)) != M
    with pytest.raises(ValueError, match="wrong row count"):
        M.replace(mats=(((RATIONALS.one,),),))
    with pytest.raises(ValueError, match="wrong column count"):
        M.replace(dims=(1, 1), mats=(((),),))
    with pytest.raises(TypeError):
        M.replace(colour="red")
    order = adapted_order(Q)
    assert order.replace(quiver=None) == build_order(Q.datum, order.word)


def test_repr_is_the_dataclass_text():
    assert repr(linear_quiver("A2")) == (
        "Quiver(datum=CartanDatum(label='A2', n=2, cartan=((2, -1), (-1, 2)), "
        "edges=((1, 2),)), arrows=((1, 2),))"
    )


def test_search_tables_are_built_once_and_stay_out_of_equality_and_hash():
    Q = linear_quiver("A3")
    order = adapted_order(Q)
    fresh = build_order(Q.datum, order.word).replace(quiver=Q)
    assert fresh is not order and fresh == order and hash(fresh) == hash(order)
    tables = order.search_tables
    assert order.search_tables is tables
    assert "search_tables" not in vars(fresh)
    assert fresh == order and hash(fresh) == hash(order)
    assert fresh.search_tables == tables


def test_per_object_tables_stay_out_of_equality_hash_and_repr():
    """The simple roots of a datum, the adjacency of a quiver and the root
    positions of an order are built once per object, as `search_tables` is,
    and never enter eq, hash or repr."""
    datum = cartan_datum("A3")
    Q = linear_quiver(datum)
    order = adapted_order(Q)
    datum.alpha(2), Q.arrows_into(2), order.index_of(order.beta[0])
    pairs = [
        (datum, CartanDatum(datum.label, datum.n, datum.cartan, datum.edges)),
        (Q, Quiver(datum, Q.arrows)),
        (order, build_order(datum, order.word).replace(quiver=Q)),
    ]
    for (old, new), name in zip(pairs, ["_simple_roots", "_adjacency", "_positions"]):
        assert name in vars(old) and name not in vars(new)
        assert old is not new and old == new and hash(old) == hash(new) and repr(old) == repr(new)
        assert getattr(old, name) is getattr(old, name) == getattr(new, name)
        assert name not in repr(old)


def test_ledger_json_is_the_dataclass_text_and_round_trips():
    ledger = OrientationLedger("reversed", "transposed", "second-factor")
    text = ledger.to_json()
    assert text == (
        "{\n"
        '  "order_direction": "reversed",\n'
        '  "hom_formula_direction": "transposed",\n'
        '  "res_large_side": "second-factor"\n'
        "}"
    )
    assert OrientationLedger.from_json(text) == ledger
    with pytest.raises(ValueError, match="bad res_large_side"):
        ledger.replace(res_large_side="third-factor")


def test_cartan_datum_is_a_value():
    assert cartan_datum("a03") == cartan_datum("A3")
    assert Quiver(cartan_datum("A2"), ((2, 1),)).datum is cartan_datum("A2")
