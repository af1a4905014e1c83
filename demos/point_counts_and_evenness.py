"""Point counts over finite fields: orbits, stable-flag fibers, their
polynomials in q, and the polynomial-in-q evidence for evenness.

Run from the repository root:  python3 demos/point_counts_and_evenness.py
"""

from quiver_orders import (
    adapted_order,
    enumerate_kp,
    evenness_check,
    fiber_point_count,
    fiber_polynomial,
    orbit_point_count,
    quiver,
    rep_space_dim,
    z_point_count,
)


def orbit_table(Q, nu, qs):
    datum = Q.datum
    order = adapted_order(Q)
    kps = enumerate_kp(datum, nu, order)
    print(f"orbits on the representation space of nu={nu} ({Q.datum.label}):")
    header = "  counts      " + "".join(f"q={q:<8}" for q in qs)
    print(header)
    for lam in kps:
        counts = " ".join(str(c) for c in lam.counts)
        cells = "".join(f"{orbit_point_count(lam, q):<10}" for q in qs)
        print(f"  {counts:12}{cells}")
    for q in qs:
        total = sum(orbit_point_count(lam, q) for lam in kps)
        assert total == q ** rep_space_dim(Q, nu)
    print(f"  column sums equal q^{rep_space_dim(Q, nu)} exactly")
    print()


def fiber_table(Q, nu, qs):
    datum = Q.datum
    order = adapted_order(Q)
    print(f"complete stable-flag fiber counts for nu={nu}:")
    for lam in enumerate_kp(datum, nu, order):
        counts = " ".join(str(c) for c in lam.counts)
        values = [fiber_point_count(lam, q) for q in qs]
        print(f"  {counts:12}" + "".join(f"{v:<10}" for v in values))
    print()


def polynomial_table(Q, nu, qs):
    datum = Q.datum
    order = adapted_order(Q)
    print(f"fiber polynomials for nu={nu} ({datum.label} {Q.arrows}), one expansion over Q:")
    for lam in enumerate_kp(datum, nu, order):
        counts = " ".join(str(c) for c in lam.counts)
        poly = fiber_polynomial(lam)
        values = ", ".join(str(fiber_point_count(lam, q)) for q in qs)
        if poly is None:
            print(f"  {counts}   no polynomial; per q: {values}")
        else:
            print(f"  {counts}   coefficients {tuple(poly)}; at q={qs}: {values}")
    print("  (ascending coefficients in q; a class without one is counted over each F_q)")
    print()


def z_table(Q, nu, qs):
    print(f"fibre-square point counts for nu={nu}: ", end="")
    print(", ".join(f"q={q}: {z_point_count(Q, nu, q)}" for q in qs))
    print()


def evenness_demo(Q, nu):
    datum = Q.datum
    order = adapted_order(Q)
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13)
    print(f"evenness evidence for the fiber counts, nu={nu} ({datum.label} {Q.arrows}):")
    for lam in enumerate_kp(datum, nu, order):
        counts = " ".join(str(c) for c in lam.counts)
        poly = fiber_polynomial(lam)
        source = "interpolated" if poly is None else f"coefficients {tuple(poly)}"
        verdict = "consistent-with-even" if evenness_check(lam, qs) else "evidence-against"
        print(f"  {counts}   {source}   verdict: {verdict}")
    print("  (checked against the counts over F_q at the held-out prime powers)")


def main():
    Q = quiver("A2", ((1, 2),))
    qs = (2, 3, 4, 5)
    orbit_table(Q, (1, 1), qs)
    fiber_table(Q, (1, 1), qs)
    polynomial_table(quiver("D4", ((2, 1), (2, 3), (2, 4))), (1, 2, 1, 1), qs)
    z_table(Q, (1, 1), (2, 3, 5, 7))
    evenness_demo(Q, (2, 1))
    evenness_demo(quiver("D4", ((2, 1), (2, 3), (2, 4))), (1, 2, 1, 1))


if __name__ == "__main__":
    main()
