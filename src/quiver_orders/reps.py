"""Quiver representations with exact coefficients, reflection functors, and
orbit point counts.

A representation assigns dims[i-1] to vertex i and to each arrow a: s -> t a
matrix of shape dims[t-1] x dims[s-1] (rows act on the source coordinates).
Indecomposables are built with reflection functors: the first n by walking
a sink sequence c of the quiver (each vertex once, so sigma_c Q = Q)
backwards from a simple, and every other one by applying the Coxeter
functor, the reflections at c_n down to c_1, to the module before it in its
orbit.  By Gabriel's theorem these orbits reach each positive root once over
any field.
Reflection functors are built at sources only; a sink is handled by duality,
S+_i = D S-_i D, where D reverses every arrow and transposes every matrix.
Isomorphism classes are read off Hom counts: in the adapted order the Hom
matrix of the indecomposables, read off the Euler form of their dims, is
upper unitriangular (the Hom order of a Dynkin quiver is directed), so
summand multiplicities follow by integer forward substitution.  A root that
does not fit into what the summands found so far leave of dim M, and each
vertex's last root (the injective I(j)), is read off the dims; only the
other roots need an elimination.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .convex_order import adapted_order
from .errors import VerificationError
from .kostant import KostantPartition
# rref is unused here, but benchmarks/test_benchmark.py checks that tracing rebinds reps.rref
from .linalg import Matrix, _eliminate, nullspace, rref, transpose, zeros  # noqa: F401
from .quivers import Quiver, reflect_quiver, sinks, sources
from .root_system import Root, is_positive, reflect_root


@dataclass(frozen=True)
class QuiverRep:
    quiver: Quiver
    field: object
    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        n = self.quiver.datum.n
        if len(self.dims) != n or any(d < 0 for d in self.dims):
            raise ValueError("bad dimension vector")
        if len(self.mats) != len(self.quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for (s, t), m in zip(self.quiver.arrows, self.mats):
            if len(m) != self.dims[t - 1]:
                raise ValueError(f"matrix for {s}->{t} has wrong row count")
            if any(len(row) != self.dims[s - 1] for row in m):
                raise ValueError(f"matrix for {s}->{t} has wrong column count")


def zero_rep(Q: Quiver, field, dims: tuple[int, ...]) -> QuiverRep:
    mats = tuple(
        zeros(field, dims[t - 1], dims[s - 1]) for s, t in Q.arrows
    )
    return QuiverRep(Q, field, tuple(dims), mats)


def simple_rep(Q: Quiver, field, i: int) -> QuiverRep:
    dims = tuple(1 if j == i else 0 for j in Q.datum.vertices())
    return zero_rep(Q, field, dims)


def _require_same_context(M: QuiverRep, N: QuiverRep) -> None:
    if M.quiver != N.quiver:
        raise ValueError("representations live over different quivers")
    if M.field != N.field:
        raise ValueError("representations live over different fields")


def _block_sum(Q: Quiver, F, parts) -> QuiverRep:
    """The direct sum of `parts`, with block-diagonal matrices, in one pass."""
    dims = tuple(sum(P.dims[i] for P in parts) for i in range(Q.datum.n))
    mats = []
    for idx, (s, t) in enumerate(Q.arrows):
        rows, left = [], 0
        for P in parts:
            width = P.dims[s - 1]
            pad = (F.zero,) * left, (F.zero,) * (dims[s - 1] - left - width)
            rows += [pad[0] + tuple(row) + pad[1] for row in P.mats[idx]]
            left += width
        mats.append(tuple(rows))
    return QuiverRep(Q, F, dims, tuple(mats))


def hom_dim(M: QuiverRep, N: QuiverRep) -> int:
    """dim of the space of morphisms M -> N: the nullity of the system below,
    the number of unknowns less the rank counted by `linalg._eliminate`.

    A morphism is a tuple of maps f_i: M_i -> N_i with f_t x_a = y_a f_s for
    every arrow a: s -> t; the unknown (f_i)[r][u] is column
    offsets[i-1] + r*dims(M)_i + u.  Each equation is a sparse row of its
    nonzero coefficients; s != t, so no two terms share an unknown.
    """
    _require_same_context(M, N)
    F = M.field
    offsets = list(accumulate(map(mul, M.dims, N.dims), initial=0))
    if offsets[-1] == 0:
        return 0
    rows = []
    for (s, t), x, y in zip(M.quiver.arrows, M.mats, N.mats):
        ms, mt = M.dims[s - 1], M.dims[t - 1]
        for r, y_row in enumerate(y):
            base = offsets[t - 1] + r * mt
            y_terms = [(offsets[s - 1] + v * ms, F.neg(e)) for v, e in enumerate(y_row) if e]
            for c in range(ms):
                row = {base + u: x[u][c] for u in range(mt) if x[u][c]}
                for k, e in y_terms:
                    row[k + c] = e
                if row:
                    rows.append(row)
    return offsets[-1] - len(_eliminate(F, rows))


def dual_rep(M: QuiverRep) -> QuiverRep:
    """The dual representation: every arrow reversed in place, every matrix
    transposed.

    Transposes are built from the dims, so a map into or out of a
    zero-dimensional space keeps its shape.
    """
    Q, d = M.quiver, M.dims
    mats = tuple(
        tuple(tuple(m[r][c] for r in range(d[t - 1])) for c in range(d[s - 1]))
        for (s, t), m in zip(Q.arrows, M.mats)
    )
    opposite = Quiver(Q.datum, tuple((t, s) for s, t in Q.arrows))
    return QuiverRep(opposite, M.field, d, mats)


def _reflect_at_source(i: int, M: QuiverRep) -> QuiverRep:
    """Cokernel construction at a source i.

    The new space at i is the cokernel of the stacked map
    M_i -> (+)_a M_tgt(a); its quotient map is a basis of the left nullspace
    of that map, and the reversed arrows are its per-arrow column blocks.
    """
    Q, F, d = M.quiver, M.field, M.dims
    out_idx = Q.arrows_out_of(i)
    psi = tuple(row for a in out_idx for row in M.mats[a])
    quotient = nullspace(F, transpose(psi), ncols=len(psi))
    new_mats = list(M.mats)
    block = 0
    for a in out_idx:
        size = d[Q.arrows[a][1] - 1]
        new_mats[a] = tuple(v[block : block + size] for v in quotient)
        block += size
    new_dims = d[: i - 1] + (len(quotient),) + d[i:]
    return QuiverRep(reflect_quiver(i, Q), F, new_dims, tuple(new_mats))


def bgp_reflect_rep(i: int, M: QuiverRep) -> QuiverRep:
    """Reflection functor at a source (cokernel construction) or a sink.

    A sink of M's quiver is a source of the dual's, and the reflection at a
    sink is the dual of the reflection at that source (Bernstein-Gelfand-
    Ponomarev), so its new space at i is the kernel of the assembled map
    into i.  Arrow order is preserved.
    """
    if i in sources(M.quiver):
        return _reflect_at_source(i, M)
    if i in sinks(M.quiver):
        return dual_rep(_reflect_at_source(i, dual_rep(M)))
    raise ValueError(f"vertex {i} is neither a sink nor a source")


def _coxeter_orbits(Q: Quiver, field):
    """Yield each indecomposable once, orbit by orbit of the Coxeter functor.

    c takes the smallest sink of the quiver reflected so far that c does not
    hold yet, so c_m is a source of sigma_{c_m}...sigma_{c_1} Q and the walk
    back from the simple at c_j ends on Q.  Each orbit stops where the
    Coxeter image of the root is not positive; every reflection's dims are
    checked against `reflect_root`.
    """
    datum = Q.datum
    c: list[int] = []
    chain = [Q]
    for _ in datum.vertices():
        c.append(min(i for i in sinks(chain[-1]) if i not in c))
        chain.append(reflect_quiver(c[-1], chain[-1]))

    def reflect_back(X: QuiverRep, letters: list[int]) -> QuiverRep:
        expected = X.dims
        for i in reversed(letters):
            X = bgp_reflect_rep(i, X)
            expected = reflect_root(datum, i, expected)
            if X.dims != expected:
                raise VerificationError(
                    f"reflection at {i} produced dims {X.dims}, expected {expected}"
                )
        return X

    for j, i in enumerate(c):
        X = reflect_back(simple_rep(chain[j], field, i), c[:j])
        while True:
            yield X
            image = X.dims
            for v in reversed(c):
                image = reflect_root(datum, v, image)
            if not is_positive(image):
                break
            X = reflect_back(X, c)


@functools.cache
def all_indecomposables(Q: Quiver, field) -> dict[Root, QuiverRep]:
    """The indecomposable representation for each positive root, keyed in
    the adapted order.

    The modules come from `_coxeter_orbits`: n(n-1)/2 reflections for the
    first round and n for each later module, at most N*n in all.  Each root
    must be reached exactly once, by a module with a one-dimensional
    endomorphism space.
    """
    beta = adapted_order(Q).beta
    found: dict[Root, QuiverRep] = {}
    for X in _coxeter_orbits(Q, field):
        if X.dims in found:
            raise VerificationError(f"Coxeter orbits reach {X.dims} twice")
        if hom_dim(X, X) != 1:
            raise VerificationError(f"endomorphism dim of M({X.dims}) is not 1")
        found[X.dims] = X
    if found.keys() != set(beta):
        raise VerificationError(
            f"Coxeter orbits reach {len(found)} roots, not the {len(beta)} positive roots"
        )
    return {b: found[b] for b in beta}


@functools.cache
def hom_matrix(Q: Quiver) -> tuple[tuple[int, ...], ...]:
    """G[k][l] = dim Hom(M(beta_k), M(beta_l)) over the adapted enumeration.

    A Dynkin quiver is representation-directed: for indecomposables X, Y at
    most one of Hom(X, Y) and Ext^1(X, Y) is nonzero, and hom - ext is the
    Euler form <x, y> = sum_i x_i y_i - sum_{s->t} x_s y_t (Ringel, LNM 1099).
    So G[k][l] = max(<beta_k, beta_l>, 0) over every field.  It is checked
    to be upper unitriangular, with (beta_k[j])_k, Hom into I(j + 1), in
    vertex j's last-root column; `iso_class` relies on both.
    """
    order = adapted_order(Q)
    beta = order.beta

    def euler(x: Root, y: Root) -> int:
        return sum(a * b for a, b in zip(x, y)) - sum(x[s - 1] * y[t - 1] for s, t in Q.arrows)

    G = tuple(tuple(max(euler(x, y), 0) for y in beta) for x in beta)
    for k, row in enumerate(G):
        if row[k] != 1 or any(row[:k]):
            raise VerificationError(f"Hom matrix is not upper unitriangular in row {k + 1}")
    for j, l in enumerate(order.last_root):
        if any(row[l] != b[j] for row, b in zip(G, beta)):
            raise VerificationError(f"Hom matrix column {l + 1} is not the injective I({j + 1})")
    return G


def rep_of_kp(lam: KostantPartition, field) -> QuiverRep:
    """Direct sum of indecomposables with the partition's multiplicities."""
    reps = all_indecomposables(lam.quiver, field)
    parts = [reps[b] for c, b in zip(lam.counts, lam.order.beta) for _ in range(c)]
    return _block_sum(lam.quiver, field, parts)


def iso_class(M: QuiverRep) -> KostantPartition:
    """Multiplicities of the indecomposable summands of M, via Hom counts.

    hom(M, M(beta_l)) = sum_k n_k G[k][l] with G upper unitriangular, so
    n_l = hom(M, M(beta_l)) - sum_{k<l} n_k G[k][l] in adapted order.  With
    r = dims - sum_{k<l} n_k beta_k, this is n_l = r[j] at vertex j's last
    root (M(beta_l) is the injective I(j + 1)), and n_l = 0 when beta_l does
    not fit into r; only the other roots take a `hom_dim` elimination.  The
    result is checked to be non-negative and to use up the dims.
    """
    order = adapted_order(M.quiver)
    reps = all_indecomposables(M.quiver, M.field)
    G = hom_matrix(M.quiver)
    vertex_of = {l: j for j, l in enumerate(order.last_root)}
    r = M.dims
    counts: list[int] = []
    for l, b in enumerate(order.beta):
        if l in vertex_of:
            n = r[vertex_of[l]]
        elif any(x > y for x, y in zip(b, r)):
            n = 0
        else:
            n = hom_dim(M, reps[b]) - sum(c * G[k][l] for k, c in enumerate(counts))
        if n < 0:
            raise VerificationError(f"negative multiplicity {n}")
        counts.append(n)
        r = tuple(y - n * x for x, y in zip(b, r))
    if any(r):
        raise VerificationError("summand multiplicities do not add up to the dims")
    return KostantPartition(order, tuple(counts))


def gl_order(n: int, q: int) -> int:
    """Number of invertible n x n matrices over a field with q elements."""
    total = 1
    for j in range(n):
        total *= q**n - q**j
    return total


def rep_space_dim(Q: Quiver, nu: tuple[int, ...]) -> int:
    """Dimension of the space of representations with dimension vector nu."""
    return sum(nu[s - 1] * nu[t - 1] for s, t in Q.arrows)


def orbit_point_count(lam: KostantPartition, q: int) -> int:
    """Number of F_q-points of the isomorphism-class orbit of M(lam).

    Uses |orbit| = |prod_i GL_nu_i| / |Aut|, with |Aut| = q^(e - sum n_k^2) *
    prod_k |GL_{n_k}| where e = dim End(M(lam)); the division is checked to
    be exact.
    """
    G = hom_matrix(lam.quiver)
    n = lam.counts
    N = len(n)
    e = sum(n[k] * n[l] * G[k][l] for k in range(N) for l in range(N))
    unipotent = e - sum(c * c for c in n)
    if unipotent < 0:
        raise VerificationError("endomorphism count below the reductive part")
    aut = q**unipotent
    for c in n:
        aut *= gl_order(c, q)
    group = 1
    for d in lam.nu:
        group *= gl_order(d, q)
    if group % aut != 0:
        raise VerificationError("automorphism order does not divide the group order")
    return group // aut

