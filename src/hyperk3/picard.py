"""Picard lattice, root system and the chamber-transport construction.

Everything runs in the F-power basis r, Fr, ..., F^21 r of the certified
pair, where F is the companion matrix of chi and the intersection pairing is
the Toeplitz Gram of the side's Taylor sequence.  The Picard lattice is
spanned by the standard basis s, Fs, ..., F^(rho-1) s with s = chi0(F) r;
its intersection form is negative definite in the non-projective case and is
flipped positive definite here.

The (-2)-roots are found on an LLL-reduced basis of that Gram (integral LLL,
then a Fincke-Pohst search in integers) and mapped back, so positivity, the
lexicographic order and the positive-root indices all refer to the standard
basis.

Two identities of root systems (Bourbaki, *Lie Groups and Lie Algebras*,
ch. VI) replace searches over all positive roots.  Height: roots have norm
2, so a root is its own coroot and the height of a positive root alpha is
(delta, alpha), delta the Weyl vector; the simple roots are the positive
roots with (2 delta, alpha) = 2.  Simple roots decide positivity: as every
positive root is a nonnegative combination of simple roots, an isometry
permuting the roots keeps the positive roots positive iff it maps every
simple root to a positive, hence simple, root.  So the Dynkin action, which
maps the simple roots, is the positivity guard.

The chamber transport is the greedy reflection ascent: starting from
d = F(2 delta), with 2 delta the integral sum of the positive roots,
repeatedly apply the Picard-Lefschetz reflection that maximally increases
the pairing with the Weyl vector delta.  The applied reflections compose to
the unique Weyl element w_F with w_F(F(K)) = K, but w_F is never formed:
each reflection acts in place on F|Pic and on F, all in integers.  The
result is guarded by the restriction identity F~ S = S F~|Pic, with S the
basis of Pic in L.  ``transport`` runs the whole pipeline on a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .hyplattice import HgLattice, build_lattice, companion
from .k3class import K3Certificate
from .polyring import IntPoly

MAX_ASCENT_STEPS = 100_000  # proxy bound for |W|; the ascent increases strictly


@dataclass(frozen=True)
class PicardLattice:
    rho: int
    gram_pos: list            # rho x rho positive definite, <u,v> = -(u,v)
    f_on_pic: list            # companion of chi1
    basis_in_l: list          # 22 x rho, columns are s, Fs, ..., F^(rho-1)s
    sign_pic: int             # <u,v> = sign_pic * (u,v)_hypergeometric
    lattice: HgLattice
    side: str
    chi: IntPoly
    chi0: IntPoly
    chi1: IntPoly


def picard_gram(lattice: HgLattice, cert: K3Certificate) -> PicardLattice:
    """Gram matrix of the standard basis of Pic, flipped positive definite.

    Exact evaluation through the Taylor coefficients: with s = chi0(F) r,
    (F^i s, F^j s) = sum_{a,b} c_a c_b xi_{|i-j+a-b|}, a Toeplitz matrix.
    Projective certificates are rejected.
    """
    if cert.projective:
        raise ValueError("projective certificate: Pic is not definite")
    if lattice.phi != cert.phi or lattice.psi != cert.psi:
        raise ValueError("lattice was not built from the certified pair")
    side = cert.side
    chi = cert.phi if side == "A" else cert.psi
    rho = cert.rho
    n = lattice.n
    sign_pic = 1 if cert.renormalized else -1
    c = cert.chi0.coeffs
    deg0 = cert.chi0.degree
    xi = lattice.xi_extended(side, n - 1)  # (F^i r, r) for i = 0..n-1
    # first row of the Toeplitz Pic Gram: t_k = (F^k s, s), k = 0..rho-1
    row = []
    for k in range(rho):
        acc = 0
        for a, ca in enumerate(c):
            if not ca:
                continue
            for b, cb in enumerate(c):
                if cb:
                    acc += ca * cb * xi[abs(k + a - b)]
        row.append(sign_pic * acc)
    gram_pos = [[row[abs(i - j)] for j in range(rho)] for i in range(rho)]
    if not linalg.is_positive_definite(gram_pos):
        raise AssertionError("Pic Gram must be positive definite (non-projective)")
    if any(gram_pos[i][i] % 2 for i in range(rho)):
        raise AssertionError("Pic must be an even lattice")
    basis = [[0] * rho for _ in range(n)]
    for i in range(rho):
        for a, ca in enumerate(c):
            basis[i + a][i] = ca  # s_i = z^(i-1) chi0(z) on the power basis
    return PicardLattice(rho, gram_pos, companion(cert.chi1), basis, sign_pic,
                         lattice, side, chi, cert.chi0, cert.chi1)


def picard_from_certificate(cert: K3Certificate) -> PicardLattice:
    return picard_gram(build_lattice(cert.phi, cert.psi), cert)


# ---------------------------------------------------------------------------
# root enumeration
# ---------------------------------------------------------------------------


def _lll_gram(gram):
    """Integral LLL reduction of a positive definite Gram matrix, delta = 3/4.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.6.7,
    run on inner products only.  Returns (reduced, basis, d, lam): row i of
    basis is the i-th reduced vector in the input coordinates and reduced is
    the Gram matrix of those rows; d[i] is the determinant of the leading
    i x i block of reduced (d[0] = 1) and lam[k][j] = d[j+1] * mu_kj, j < k,
    are the integral Gram-Schmidt coefficients.  Raises ValueError as soon
    as a leading minor is not positive.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    basis = linalg.identity(n)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def size_reduce(k, l):  # b_k -= round(mu_kl) b_l
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]
        g[k] = [a - q * b for a, b in zip(g[k], g[l])]
        for row in g:
            row[k] -= q * row[l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):  # exchange b_(k-1) and b_k
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 0, -1
    while k < n:
        if k > kmax:  # Gram-Schmidt data of the not yet seen b_k
            kmax = k
            for j in range(k + 1):
                u = g[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError("quadratic form is not positive definite")
                else:
                    d[k + 1] = u
        if k:
            size_reduce(k, k - 1)
            if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
                swap(k)
                k = max(1, k - 1)
                continue
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
        k += 1
    return g, basis, d, lam


def enumerate_root_system(gram_pos) -> list[tuple[int, ...]]:
    """All integer vectors with Q(t) = 2, sorted lexicographically.

    LLL-reduces the Gram, then runs a Fincke-Pohst search on the reduced
    form: in reduced coordinates x, Q = sum_i a_i^2 / (d[i] d[i+1]) with the
    integers a_i = d[i+1] x_i + sum_(j>i) lam[j][i] x_j, so scaling by
    L = lcm(d[i] d[i+1]) turns every bound into an isqrt.  The roots are
    mapped back to the input basis before sorting.  Raises ValueError on a
    form that is not positive definite, and AssertionError if the form
    takes the value 1 (it must be even).
    """
    rho = len(gram_pos)
    _reduced, basis, d, lam = _lll_gram(gram_pos)
    scale = math.lcm(*(d[i] * d[i + 1] for i in range(rho)))
    weight = [scale // (d[i] * d[i + 1]) for i in range(rho)]
    x = [0] * rho
    found = []

    def walk(i, rem):  # rem = scale * (2 - Q restricted to levels above i)
        if i < 0:
            if rem == 0:
                found.append(x[:])
            elif rem == scale:
                raise AssertionError("even lattice attained Q = 1")
            return
        s = sum(lam[j][i] * x[j] for j in range(i + 1, rho))
        r = math.isqrt(rem // weight[i])  # |a_i| <= r
        di = d[i + 1]
        for v in range(-((r + s) // di), (r - s) // di + 1):
            a = di * v + s
            x[i] = v
            walk(i - 1, rem - weight[i] * a * a)
        x[i] = 0

    walk(rho - 1, 2 * scale)
    to_input = linalg.transpose(basis)
    return sorted(tuple(linalg.mat_vec(to_input, root)) for root in found)


@dataclass(frozen=True)
class RootSystemData:
    all_roots: list
    positive_roots: list       # lex increasing; sigma_j refers to entry j-1
    simple_roots: list
    simple_index: tuple        # positive-root index of each simple root
    dynkin: tuple              # multiset of component labels, e.g. ('E6', 'E6')
    two_delta: list            # 2 * Weyl vector, integers: the sum of the positive roots
    components: tuple          # per component: dict label -> positive-root index


def positive_simple_roots(roots, gram_pos) -> RootSystemData:
    """Positive roots (first nonzero coordinate > 0), twice the Weyl vector, and
    the simple roots: the positive roots of height 1, (2 delta, alpha) = 2."""
    zero = (0,) * len(gram_pos)
    positive = sorted(r for r in roots if r > zero)
    if 2 * len(positive) != len(roots):
        raise AssertionError("roots must come in +- pairs")
    two_delta = [sum(p[i] for p in positive) for i in range(len(gram_pos))]
    g_two_delta = linalg.mat_vec(gram_pos, two_delta)
    index = tuple(k for k, p in enumerate(positive) if linalg.dot(g_two_delta, p) == 2)
    simple = [positive[k] for k in index]
    comps, labels = _dynkin_components(simple, gram_pos, index)
    return RootSystemData(list(roots), positive, simple, index, labels, two_delta, comps)


def pairing(gram, u, v):
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def dynkin_classify(simple_roots, gram_pos):
    """Multiset of ADE labels of the Coxeter graph of the simple roots.  No caller
    in the package: kept as the paper's Dynkin types, which test_picard checks."""
    return _dynkin_components(simple_roots, gram_pos, range(len(simple_roots)))[1]


def _dynkin_components(simple, gram, index):
    """(components, labels), largest first; a component maps each name to
    index[node], with index[i] the positive-root index of simple[i]."""
    n = len(simple)
    adj = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            v = pairing(gram, simple[i], simple[j])
            if v not in (0, -1):
                raise ValueError("not a simply-laced simple-root system")
            if v == -1:
                adj[i].append(j)
                adj[j].append(i)
    seen = set()
    comps = []
    labels = []
    for start in range(n):
        if start in seen:
            continue
        comp = _collect(start, adj, seen)
        label, naming = _classify_component(comp, adj)
        labels.append(label)
        comps.append({name: index[node] for name, node in naming.items()})
    order = sorted(range(len(labels)), key=lambda i: (-_ade_size(labels[i]), labels[i]))
    return tuple(comps[i] for i in order), tuple(labels[i] for i in order)


def _collect(start, adj, seen):
    stack, comp = [start], []
    seen.add(start)
    while stack:
        x = stack.pop()
        comp.append(x)
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return sorted(comp)


def _ade_size(label: str) -> int:
    return int(label[1:])


def _classify_component(comp, adj):
    """ADE label plus a canonical Bourbaki naming 'e<i>' -> node."""
    m = len(comp)
    deg = {x: len([y for y in adj[x] if y in comp]) for x in comp}
    branch = [x for x in comp if deg[x] >= 3]
    if any(deg[x] > 3 for x in comp) or len(branch) > 1:
        raise ValueError("Coxeter graph is not of ADE type")
    edges = sum(deg[x] for x in comp) // 2
    if edges != m - 1:
        raise ValueError("Coxeter graph has a cycle")
    if not branch:
        # type A_m: orient the path from the smaller endpoint
        ends = [x for x in comp if deg[x] <= 1]
        if m == 1:
            return "A1", {"e1": comp[0]}
        start = min(ends)
        path = _walk_path(start, adj, comp)
        return f"A{m}", {f"e{i+1}": x for i, x in enumerate(path)}
    b = branch[0]
    arms = []
    for nb in sorted(adj[b]):
        arm = _walk_path(nb, adj, comp, forbidden={b})
        arms.append(arm)
    arms.sort(key=len)
    lens = tuple(len(a) for a in arms)
    if lens == (1, 1, m - 3):
        # D_m: chain e1..e_(m-2) ending at the branch node, fork ends e_(m-1), e_m
        long_arm = arms[2][::-1]  # from the far end towards the branch node
        naming = {f"e{i+1}": x for i, x in enumerate(long_arm)}
        naming[f"e{m-2}"] = b
        f1, f2 = sorted([arms[0][0], arms[1][0]])
        naming[f"e{m-1}"] = f1
        naming[f"e{m}"] = f2
        # long_arm has m-3 nodes e1..e_(m-3)
        return f"D{m}", naming
    if lens in ((1, 2, 2), (1, 2, 3), (1, 2, 4)):
        label = {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}[lens]
        short, mid, long_ = arms  # arms start at the branch-node neighbor
        naming = {"e2": short[0], "e4": b, "e3": mid[0], "e1": mid[1]}
        for i, x in enumerate(long_):
            naming[f"e{5+i}"] = x
        return label, naming
    raise ValueError(f"Coxeter graph with arm lengths {lens} is not ADE")


def _walk_path(start, adj, comp, forbidden=()):
    path = [start]
    prev = set(forbidden) | {start}
    cur = start
    while True:
        nxt = [y for y in adj[cur] if y in comp and y not in prev]
        if not nxt:
            return path
        if len(nxt) > 1:
            raise ValueError("branch inside an arm; not an ADE path")
        cur = nxt[0]
        prev.add(cur)
        path.append(cur)


# ---------------------------------------------------------------------------
# bringing back
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BringBackResult:
    word: tuple[int, ...]          # 1-based positive-root indices, composition order
    modified: list                 # 22 x 22 integer matrix of F~ = w_F o F on L
    modified_on_pic: list          # rho x rho integer matrix of F~|Pic
    chi_tilde: IntPoly
    chi1_tilde: IntPoly
    trace_tilde: int


def bring_back(pic: PicardLattice, rs: RootSystemData,
               tie_break: str = "lowest") -> BringBackResult:
    """Greedy reflection ascent transporting F's chamber image back.

    The ascent runs in integers on d = F(2 delta), so every pairing gain is 4
    times the gain for delta and the choices are the same.  Ties among
    reflections attaining the maximal gain break to the lowest positive-root
    index by default ('highest' picks the other end; either way the product
    is the same Weyl element).  The word is reported in composition order:
    the rightmost reflection acts first.

    w_F is never formed: each chosen reflection is applied straight to F|Pic
    and to F on L as a rank-one update.  A reflection moves vectors only
    along Pic, so F~ = F mod Pic; the guard F~ S = S F~|Pic (S the basis of
    Pic in L) then gives chi~ = chi0 * charpoly(F~|Pic).
    """
    pos = rs.positive_roots
    gu = [linalg.mat_vec(pic.gram_pos, list(u)) for u in pos]
    two_delta_u = [linalg.dot(rs.two_delta, gu_k) for gu_k in gu]
    if not all(v > 0 for v in two_delta_u):
        raise AssertionError("Weyl vector must pair positively with every positive root")
    if tie_break not in ("lowest", "highest"):
        raise ValueError("tie_break must be 'lowest' or 'highest'")
    prefer_high = tie_break == "highest"
    s = pic.basis_in_l
    g_l = pic.lattice.gram_a if pic.side == "A" else pic.lattice.gram_b
    f_tilde = companion(pic.chi)
    f_tilde_pic = [list(row) for row in pic.f_on_pic]
    d = linalg.mat_vec(f_tilde_pic, rs.two_delta)
    applied: list[int] = []
    for _step in range(MAX_ASCENT_STEPS):
        best_k = None
        best_gain = 0
        for k, gu_k in enumerate(gu):
            gain = -linalg.dot(d, gu_k) * two_delta_u[k]
            if gain > best_gain or (prefer_high and gain == best_gain and gain > 0):
                best_gain = gain
                best_k = k
        if best_k is None:
            break
        u = pos[best_k]
        du = linalg.dot(d, gu[best_k])
        d = [a - du * b for a, b in zip(d, u)]
        _reflect(f_tilde_pic, u, gu[best_k], 1)
        u_l = linalg.mat_vec(s, u)
        _reflect(f_tilde, u_l, linalg.mat_vec(g_l, u_l), pic.sign_pic)
        applied.append(best_k)
    else:
        raise AssertionError(
            f"reflection ascent failed to terminate within {MAX_ASCENT_STEPS} steps")
    if linalg.mat_mul(f_tilde, s) != linalg.mat_mul(s, f_tilde_pic):
        raise AssertionError("modified matrix does not restrict to its Picard block")
    chi1_tilde = IntPoly(tuple(linalg.charpoly(f_tilde_pic)))
    chi_tilde = pic.chi0 * chi1_tilde
    word = tuple(k + 1 for k in reversed(applied))
    return BringBackResult(word, f_tilde, f_tilde_pic, chi_tilde,
                           chi1_tilde, chi_tilde.trace())


def _reflect(m, u, gu, sign):
    """M <- M - sign * u (gu^T M) in place: the reflection v -> v - sign*(v^T G u) u after M."""
    row = [linalg.dot(gu, col) for col in zip(*m)]
    for i, ui in enumerate(u):
        if ui:
            m[i] = [a - sign * ui * b for a, b in zip(m[i], row)]


class PositivityError(AssertionError):
    """The modified matrix maps a simple root to a root that is not simple."""


def dynkin_action(result: BringBackResult, rs: RootSystemData):
    """Permutation of the simple roots induced by the modified matrix.

    Returns (mapping, cycles) where mapping sends each simple-root position
    to the position of its image and cycles is the cycle decomposition over
    the canonical component labels like 'E6#1:e3'.  This is also the
    positivity guard: F~|Pic is an isometry, so it preserves the positive
    roots exactly when every simple root's image is simple, and
    PositivityError is raised otherwise.
    """
    simple = rs.simple_roots
    index_of = {s: i for i, s in enumerate(simple)}
    mapping = []
    for sroot in simple:
        img = tuple(linalg.mat_vec(result.modified_on_pic, list(sroot)))
        if img not in index_of:
            raise PositivityError("modified matrix does not preserve the positive roots: "
                                  "the image of a simple root is not simple")
        mapping.append(index_of[img])
    names = _simple_names(rs)
    cycles = []
    seen = set()
    for i in range(len(simple)):
        if i in seen or mapping[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = mapping[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = mapping[j]
        cycles.append(tuple(names[k] for k in cyc))
    return mapping, tuple(cycles)


def _simple_names(rs: RootSystemData):
    """Names of simple roots by component: 'E6#1:e4' etc., keyed by simple index."""
    by_pos = {}
    counts = {}
    for label, naming in zip(rs.dynkin, rs.components):
        counts[label] = counts.get(label, 0) + 1
        prefix = f"{label}#{counts[label]}"
        for name, pos_idx in naming.items():
            by_pos[pos_idx] = f"{prefix}:{name}"
    return {i: by_pos[k] for i, k in enumerate(rs.simple_index)}


def transport(cert: K3Certificate):
    """The chamber transport of a non-projective certificate, as (pic, rs,
    result, cycles): the PicardLattice, its RootSystemData, bring_back's
    result (lowest-index tie-break) and the Dynkin action's cycles.  Raises
    PositivityError if the modified matrix does not keep the positive roots.
    """
    pic = picard_from_certificate(cert)
    rs = positive_simple_roots(enumerate_root_system(pic.gram_pos), pic.gram_pos)
    result = bring_back(pic, rs)
    _mapping, cycles = dynkin_action(result, rs)
    return pic, rs, result, cycles
