"""Indecomposable representations, the Hom matrix, and reflection functors.

Run from the repository root:  python3 demos/indecomposables_and_reflections.py
"""

from quiver_orders import (
    KostantPartition,
    RATIONALS,
    adapted_order,
    all_indecomposables,
    bgp_reflect_rep,
    hom_dim,
    hom_matrix,
    iso_class,
    quiver,
    reflect_kp,
    rep_of_kp,
    ringel_check,
)


def show_indecomposables(Q):
    print(f"indecomposables of {Q.datum.label} with arrows {Q.arrows}:")
    table = all_indecomposables(Q, RATIONALS)
    for beta, M in table.items():
        dims = " ".join(str(d) for d in M.dims)
        print(f"  dimension vector ({dims}), End dimension {hom_dim(M, M)}")
    print()


def show_hom_matrix(Q):
    G = hom_matrix(Q)
    print("Hom-dimension matrix G[k][l] = dim Hom(M(beta_k), M(beta_l)):")
    for row in G:
        print("   ", "\t".join(str(v) for v in row))
    (direction,) = ringel_check(Q)
    print("  equals max(<gamma, beta>, 0) with indices", direction, "- and only in that direction")
    print()


def show_reflection(Q):
    order = adapted_order(Q)
    # one copy of the root alpha_1 + alpha_2, reflected at the sink 2
    lam = KostantPartition(order, tuple(1 if k == order.index_of((1, 1)) else 0 for k in range(order.length)))
    M = rep_of_kp(lam, RATIONALS)
    R = bgp_reflect_rep(2, M)
    print(f"module of {lam.parts()} has dims {M.dims}; reflecting at the sink 2:")
    print(f"  reflected dims {R.dims} over arrows {R.quiver.arrows}")
    mirrored = reflect_kp(2, lam)
    print(f"  partition reflected partwise: {mirrored.parts()}")
    print(f"  iso class of the reflected module matches: {iso_class(R) == mirrored}")
    print()


def main():
    Q = quiver("A2", ((1, 2),))
    show_indecomposables(Q)
    show_hom_matrix(Q)
    show_reflection(Q)

    D4 = quiver("D4", ((1, 2), (3, 2), (4, 2)))
    show_indecomposables(D4)


if __name__ == "__main__":
    main()
