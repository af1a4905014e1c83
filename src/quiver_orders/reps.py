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
A reflection functor at a sink or a source is one nullspace of the maps at
the vertex: the kernel of the maps in at a sink, the quotient map of the
cokernel of the maps out at a source, told apart by the arrows at the vertex.
Isomorphism classes are read off Hom counts: in the adapted order the Hom
matrix of the indecomposables, read off the Euler form of their dims, is
upper unitriangular (the Hom order of a Dynkin quiver is directed), so
summand multiplicities follow by integer forward substitution, with the
Hom counts of the summands found so far and what they leave of dim M kept
as running vectors.  A root that does not fit into that residual, and each
vertex's last root (the injective I(j)), is read off the dims; only the
other roots need an elimination.
Hom dimensions have two routines.  `hom_dim(M, N)` solves the system of all
maps M_i -> N_i for one pair; it serves `iso_class` and the endomorphism
checks, which meet few targets per module, so a presentation would cost
them more than the systems it replaces.  `hom_table(modules)` builds one
minimal projective presentation per module and reads each entry off a
system with an unknown per generator coordinate, or with no system where N
is zero at every generator vertex of M (the entry is 0) or M has no
relations (M is projective; the entry is the number of unknowns); it serves
the N^2 table of `geometry.ringel_check`, and `hom_dim` is its oracle in
the tests.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import add, gt, mul

from .convex_order import adapted_order
from .errors import VerificationError
from .kostant import KostantPartition
# rref is unused here, but benchmarks/test_benchmark.py checks that tracing rebinds reps.rref
from .linalg import Matrix, _eliminate, nullspace, rref, zeros  # noqa: F401
from .quivers import Quiver, reflect_quiver, sinks
from .root_system import Root, Value, is_positive, reflect_root


class QuiverRep(Value):
    _fields = ("quiver", "field", "dims", "mats")

    def __init__(
        self, quiver: Quiver, field: object, dims: tuple[int, ...], mats: tuple[Matrix, ...]
    ) -> None:
        self.__dict__.update(quiver=quiver, field=field, dims=dims, mats=mats)
        arrows = quiver.arrows
        if len(dims) != quiver.datum.n or min(dims) < 0:
            raise ValueError("bad dimension vector")
        if len(mats) != len(arrows):
            raise ValueError("one matrix per arrow required")
        for (s, t), m in zip(arrows, mats):
            if len(m) != dims[t - 1]:
                raise ValueError(f"matrix for {s}->{t} has wrong row count")
            if not all(map(dims[s - 1].__eq__, map(len, m))):
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
    nonzero coefficients; s != t, so no two terms share an unknown.  It
    needs no presentation, so it is the routine for single pairs; tables
    over many modules go through `hom_table`.
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


def _path_maps(M: QuiverRep) -> dict[tuple[int, int], list[dict[int, object]]]:
    """M's map along the path from u to v, keyed (u, v), as sparse rows, for
    every pair joined by a path, the identity at (u, u) included.  A Dynkin
    quiver is a tree, so there is at most one path, and a walk out of u meets
    each vertex once.
    """
    Q, F = M.quiver, M.field
    plus, times = (add, mul) if F.order is None else (F.add, F.mul)
    out = {v: Q.arrows_out_of(v) for v in Q.datum.vertices()}
    maps: dict[tuple[int, int], list[dict[int, object]]] = {}
    for u in Q.datum.vertices():
        maps[u, u] = [{r: F.one} for r in range(M.dims[u - 1])]
        stack = [u]
        while stack:
            s = stack.pop()
            P = maps[u, s]
            for a in out[s]:
                rows = []
                for arow in M.mats[a]:
                    row: dict[int, object] = {}
                    for m, x in enumerate(arow):
                        if x:
                            for c, y in P[m].items():
                                row[c] = plus(row[c], times(x, y)) if c in row else times(x, y)
                    rows.append({c: y for c, y in row.items() if y})
                t = Q.arrows[a][1]
                maps[u, t] = rows
                stack.append(t)
    return maps


def _presentation(M: QuiverRep):
    """M's path maps and a minimal projective presentation 0 -> P_1 -> P_0 -> M.

    The generators (v, j) of P_0 are the unit vectors e_j of M_v outside the
    leading columns of an echelon basis of the image of the arrows into v, so
    they span a complement of it, the top of M at v.  The kernel K_k of
    P_0 -> M at k, the relations among the images at k of the generators with
    a path to k, is read off an echelon basis of the rows (image, unit vector
    of the generator); where M_k = 0 it holds every such generator.  An arrow
    s -> k carries K_s into K_k unchanged, and those kernels meet no common
    generator, so P_1 needs at k only relations that extend them to a basis
    of K_k.  Returns (generators, relations, path maps), a relation being
    (k, ((generator index, coefficient), ...)).
    """
    Q, F, d = M.quiver, M.field, M.dims
    paths = _path_maps(M)
    into = {v: Q.arrows_into(v) for v in Q.datum.vertices()}
    gens: list[tuple[int, int]] = []
    for v, arrows in into.items():
        image = _eliminate(F, (
            {r: row[c] for r, row in enumerate(M.mats[a]) if row[c]}
            for a in arrows
            for c in range(d[Q.arrows[a][0] - 1])
        ))
        gens += [(v, j) for j in range(d[v - 1]) if j not in image]
    kernels = {}
    for k in Q.datum.vertices():
        dk, rows = d[k - 1], []
        for g, (v, j) in enumerate(gens):
            if (v, k) in paths:
                row = {r: x[j] for r, x in enumerate(paths[v, k]) if j in x}
                row[dk + g] = F.one
                rows.append(row)
        kernels[k] = [{c - dk: x for c, x in b.items()} for lead, b in _eliminate(F, rows).items() if lead >= dk]
    relations = []
    for k, arrows in into.items():
        pushed = [row for a in arrows for row in kernels[Q.arrows[a][0]]]
        if len(pushed) < len(kernels[k]):
            leads = {min(row) for row in pushed}
            basis = _eliminate(F, pushed + kernels[k])
            relations += [(k, tuple(b.items())) for lead, b in basis.items() if lead not in leads]
    return gens, relations, paths


def hom_table(modules) -> tuple[tuple[int, ...], ...]:
    """H[a][b] = dim Hom(modules[a], modules[b]) for modules over one quiver
    and field, each row read off one projective presentation of modules[a].

    The path algebra of a Dynkin quiver is hereditary, so Hom(M, N) is the
    kernel of Hom(P_0, N) -> Hom(P_1, N) (Assem-Simson-Skowronski, Elements
    1, ch. III and VII).  A map P_0 -> N is its values f(g) in N_v at the
    generators g = (v, j); a relation sum_g c_g g at k asks that
    sum_g c_g N_{v->k} f(g) vanish in N_k, dims(N)_k rows through N's path
    maps.  So each entry is a system with sum_g dims(N)_v unknowns, where
    `hom_dim` has sum_i dims(M)_i dims(N)_i, and each module's presentation
    and path maps are built once per call.  Two kinds of entry take no
    system: with no unknowns (N is zero at every generator vertex) the
    entry is 0, and with no relations (P_1 = 0, so M = P_0 is projective)
    it is the number of unknowns, dim Hom(P_0, N).  `ringel_check`'s N^2
    table over the indecomposables uses it; `hom_dim`, which needs no
    presentation, serves single pairs and is this routine's oracle.
    """
    modules = list(modules)
    for N in modules[1:]:
        _require_same_context(modules[0], N)
    pres = [_presentation(M) for M in modules]
    table = []
    for M, (gens, relations, _) in zip(modules, pres):
        F = M.field
        times = mul if F.order is None else F.mul
        at = [v - 1 for v, _ in gens]
        entries = []
        for N, (_, _, paths) in zip(modules, pres):
            offsets = list(accumulate(map(N.dims.__getitem__, at), initial=0))
            if not (relations and offsets[-1]):
                entries.append(offsets[-1])
                continue
            rows = []
            for k, rel in relations:
                blocks = [(offsets[g], c, paths[gens[g][0], k]) for g, c in rel]
                for r in range(N.dims[k - 1]):
                    row = {}
                    for base, c, P in blocks:
                        for u, x in P[r].items():
                            row[base + u] = times(c, x)
                    if row:
                        rows.append(row)
            entries.append(offsets[-1] - len(_eliminate(F, rows)))
        table.append(tuple(entries))
    return tuple(table)


def bgp_reflect_rep(i: int, M: QuiverRep) -> QuiverRep:
    """Reflection functor at a source or a sink i (Bernstein-Gelfand-
    Ponomarev), from one nullspace of the maps at i placed side by side as
    dims(M)_i-row blocks.

    At a source these are the transposed out-maps: the nullspace is the left
    nullspace of M_i -> (+)_a M_tgt(a), a basis of it is the quotient map of
    its cokernel, and each reversed arrow gets its column block.  At a sink
    they are the in-maps: the nullspace is the kernel of
    (+)_a M_src(a) -> M_i, and each reversed arrow gets its column block
    transposed, so the result is the dual of the source construction on the
    dual (S+_i = D S-_i D, D reversing every arrow and transposing every
    matrix).  The blocks are built from the dims, so a map into or out of a
    zero-dimensional space keeps its shape.  Arrow order is preserved.
    `reflect_quiver` rejects an i that is neither a sink nor a source, so i
    is a sink exactly when no arrow leaves it (an isolated vertex counts as
    one).
    """
    Q, F, d = M.quiver, M.field, M.dims
    new_quiver = reflect_quiver(i, Q)
    out = Q.arrows_out_of(i)
    at_sink = not out
    arrows, end = (Q.arrows_into(i), 0) if at_sink else (out, 1)
    blocks = [(a, d[Q.arrows[a][end] - 1]) for a in arrows]  # (arrow, dim at its other end)
    if at_sink:
        rows = tuple(tuple(x for a, _ in blocks for x in M.mats[a][r]) for r in range(d[i - 1]))
    else:
        rows = tuple(
            tuple(M.mats[a][u][r] for a, size in blocks for u in range(size))
            for r in range(d[i - 1])
        )
    basis = nullspace(F, rows, ncols=sum(size for _, size in blocks))
    new_mats = list(M.mats)
    start = 0
    for a, size in blocks:
        if at_sink:
            new_mats[a] = tuple(tuple(v[c] for v in basis) for c in range(start, start + size))
        else:
            new_mats[a] = tuple(v[start : start + size] for v in basis)
        start += size
    new_dims = d[: i - 1] + (len(basis),) + d[i:]
    return QuiverRep(new_quiver, F, new_dims, tuple(new_mats))


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
    return _block_sum(lam.quiver, field, [reps[b] for b in lam.parts()])


def iso_class(M: QuiverRep) -> KostantPartition:
    """Multiplicities of the indecomposable summands of M, via Hom counts.

    hom(M, M(beta_l)) = sum_k n_k G[k][l] with G upper unitriangular, so
    n_l = hom(M, M(beta_l)) - found[l] in adapted order, where found[l] =
    sum_{k<l} n_k G[k][l] is kept as a running vector, updated by row k of G
    as each nonzero n_k is fixed.  With the residual r = dims -
    sum_{k<l} n_k beta_k, also kept as it goes, n_l = r[j] at vertex j's
    last root (M(beta_l) is the injective I(j + 1)), and n_l = 0 when beta_l
    does not fit into r; only the other roots take a `hom_dim` elimination.
    The result is checked to be non-negative and to use up the dims.  The
    dims check guards the last-root invariant of `ConvexOrder.last_root`;
    no Hom count can reach it, since each vertex's residual is zeroed at its
    last root and no later root touches that vertex, so Hom counts that are
    off can yield another partition with the same dims.
    """
    order = adapted_order(M.quiver)
    reps = all_indecomposables(M.quiver, M.field)
    G = hom_matrix(M.quiver)
    vertex_of = {l: j for j, l in enumerate(order.last_root)}
    r = M.dims
    found = [0] * len(G)
    counts: list[int] = []
    for l, b in enumerate(order.beta):
        if l in vertex_of:
            n = r[vertex_of[l]]
        elif any(map(gt, b, r)):
            n = 0
        else:
            n = hom_dim(M, reps[b]) - found[l]
        if n < 0:
            raise VerificationError(f"negative multiplicity {n}")
        counts.append(n)
        if n:
            found = [f + n * g for f, g in zip(found, G[l])]
            r = [y - n * x for x, y in zip(b, r)]
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

