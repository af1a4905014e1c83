"""Kostant partitions of a dimension vector and their calibrated partial order.

Run from the repository root:  python3 demos/kostant_partition_posets.py
"""

from quiver_orders import (
    adapted_order,
    calibrate,
    cover_relations,
    default_test_nus,
    enumerate_kp,
    hasse_dot,
    linear_quiver,
    prefix_statistics,
)


def main():
    Q = linear_quiver("A3")
    datum = Q.datum
    order = adapted_order(Q)

    # the convention ledger is derived from small evidence, never assumed
    ledger = calibrate(Q, default_test_nus(datum))
    print("calibrated conventions:")
    print("  order_direction:", ledger.order_direction)
    print("  hom_formula_direction:", ledger.hom_formula_direction)
    print("  res_large_side:", ledger.res_large_side)
    print()

    nu = (1, 1, 1)
    kps = enumerate_kp(datum, nu, order)
    print(f"KP{nu} over the adapted order of {Q.arrows}: {len(kps)} partitions")
    print("  counts        parts                       prefix statistics")
    for lam in kps:
        counts = " ".join(str(c) for c in lam.counts)
        parts = ", ".join("(" + " ".join(str(c) for c in b) + ")" for b in lam.parts())
        stats = " ".join(str(t) for t in prefix_statistics(lam))
        print(f"  {counts}   {parts:28}{stats}")
    print()

    covers = cover_relations(kps, ledger)
    print("cover relations (low -> high; closed orbits are minimal):")
    for lo, hi in covers:
        a = " ".join(str(c) for c in lo.counts)
        b = " ".join(str(c) for c in hi.counts)
        print(f"  {a}  ->  {b}")
    print()

    print("the same poset as DOT text:")
    print(hasse_dot(kps, ledger))


if __name__ == "__main__":
    main()
