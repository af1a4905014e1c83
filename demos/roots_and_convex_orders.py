"""Walk through root systems and the convex orders their reduced words induce.

Run from the repository root:  python3 demos/roots_and_convex_orders.py [TYPE]
"""

import itertools
import sys

from quiver_orders import (
    Quiver,
    adapted_word_of_w0,
    build_order,
    cartan_datum,
    linear_quiver,
    pairing_sign_report,
    positive_roots,
)


def show_roots(label):
    datum = cartan_datum(label)
    roots = positive_roots(datum)
    print(f"{label}: {len(roots)} positive roots (simple-root coordinates)")
    for r in roots:
        print("   ", " ".join(str(c) for c in r))
    print()


def show_adapted_words(label):
    """One reduced word of w0 per orientation: its adapted word."""
    datum = cartan_datum(label)
    print(f"{label}: the adapted reduced word of w0 for each orientation")
    for flips in itertools.product((False, True), repeat=len(datum.edges)):
        arrows = tuple((j, i) if f else (i, j) for (i, j), f in zip(datum.edges, flips))
        word = adapted_word_of_w0(Quiver(datum, arrows))
        shown = ", ".join(f"{s}->{t}" for s, t in arrows)
        print(f"    {shown:<12}", " ".join(str(i) for i in word))
    print()


def show_order(label, word):
    datum = cartan_datum(label)
    order = build_order(datum, word)
    print(f"convex order from the word {word} in {label}:")
    print("  k   beta_k        gamma_k")
    for k in range(order.length):
        b = " ".join(str(c) for c in order.beta[k])
        g = " ".join(str(c) for c in order.gamma[k])
        print(f"  {k + 1}   ({b})      ({g})")
    print("  pairing matrix C[k][l] = <gamma_k, beta_l>:")
    for row in order.pairings:
        print("   ", "\t".join(str(v) for v in row))
    violations = pairing_sign_report(order)
    print(f"  unit diagonal, <=0 above, >=0 below: {not violations}")
    print()


def show_adapted(label):
    Q = linear_quiver(label)
    word = adapted_word_of_w0(Q)
    print(f"sink-adapted word for the linear {label} quiver {Q.arrows}:")
    print("   ", " ".join(str(i) for i in word))
    # each letter is the least sink whose column is a positive root; the
    # least sink alone would end the word with 1, which is not reduced
    print()


def main():
    label = sys.argv[1] if len(sys.argv) > 1 else "A3"
    show_roots(label)
    show_adapted_words("A2")
    show_adapted_words("A3")
    show_order("A2", (2, 1, 2))
    show_adapted("A3")


if __name__ == "__main__":
    main()
