"""Picard lattice, root system and the chamber-transport construction.

Everything runs in the F-power basis r, Fr, ..., F^21 r of the certified
pair, where F is the companion matrix of chi and the intersection pairing is
the Toeplitz Gram of the side's Taylor sequence.  The Picard lattice is
spanned by the standard basis s, Fs, ..., F^(rho-1) s with s = chi0(F) r;
its intersection form is negative definite in the non-projective case and is
flipped positive definite here.

The chamber transport is the greedy reflection ascent: starting from
d = F(weyl vector), repeatedly apply the Picard-Lefschetz reflection that
maximally increases the pairing with the Weyl vector; the product of the
applied reflections is the unique Weyl element w_F with w_F(F(K)) = K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .hyplattice import HgLattice, build_lattice, companion
from .k3class import K3Certificate
from .polyring import IntPoly, classify_product

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
    if rho:
        if not linalg.is_positive_definite(gram_pos):
            raise AssertionError("Pic Gram must be positive definite (non-projective)")
        if any(gram_pos[i][i] % 2 for i in range(rho)):
            raise AssertionError("Pic must be an even lattice")
    basis = [[0] * rho for _ in range(n)]
    for i in range(rho):
        for a, ca in enumerate(c):
            basis[i + a][i] = ca  # s_i = z^(i-1) chi0(z) on the power basis
    f_on_pic = companion(cert.chi1) if rho else []
    return PicardLattice(rho, gram_pos, f_on_pic, basis, sign_pic,
                         lattice, side, chi, cert.chi0, cert.chi1)


def picard_from_certificate(cert: K3Certificate) -> PicardLattice:
    return picard_gram(build_lattice(cert.phi, cert.psi), cert)


# ---------------------------------------------------------------------------
# root enumeration
# ---------------------------------------------------------------------------


def _completed_squares(gram):
    """G = U D U^T with U upper unitriangular: Q = sum d_j (t_j - p_j)^2.

    Returns (d, U) over Fractions; positive definiteness makes every d_j > 0.
    """
    n = len(gram)
    rev = [[Fraction(gram[n - 1 - i][n - 1 - j]) for j in range(n)] for i in range(n)]
    low = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for k in range(n):
        acc = rev[k][k] - sum(low[k][m] ** 2 * d[m] for m in range(k))
        if acc <= 0:
            raise ValueError("quadratic form is not positive definite")
        d[k] = acc
        low[k][k] = Fraction(1)
        for i in range(k + 1, n):
            low[i][k] = (rev[i][k] - sum(low[i][m] * low[k][m] * d[m] for m in range(k))) / d[k]
    u = [[low[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    dd = d[::-1]
    return dd, u


def enumerate_root_system(gram_pos) -> list[tuple[int, ...]]:
    """All integer vectors with Q(t) = 2, in lexicographic DFS order.

    Depth-first walk of the completed-square forest, children explored in
    increasing coordinate; asserts that the even form never takes value 1.
    """
    rho = len(gram_pos)
    if rho == 0:
        return []
    d, u = _completed_squares(gram_pos)
    budget = Fraction(2)
    roots: list[tuple[int, ...]] = []
    t = [0] * rho

    def p_of(j):  # p_j depends on t_0 .. t_(j-1)
        return -sum(u[i][j] * t[i] for i in range(j))

    def walk(j, used):
        if j == rho:
            total = used
            if total == 2:
                roots.append(tuple(t))
            elif total == 1:
                raise AssertionError("even lattice attained Q = 1")
            return
        rem = budget - used
        pj = p_of(j)
        lo = _floor_f(pj)
        # scan down from floor(p_j), then up from floor(p_j)+1
        for start, step in ((lo, -1), (lo + 1, 1)):
            v = start
            while True:
                cost = d[j] * (v - pj) ** 2
                if cost > rem:
                    break
                t[j] = v
                walk(j + 1, used + cost)
                v += step
            t[j] = 0

    walk(0, Fraction(0))
    roots.sort()
    return roots


def _floor_f(x: Fraction) -> int:
    return x.numerator // x.denominator


@dataclass(frozen=True)
class RootSystemData:
    all_roots: list
    positive_roots: list       # lex increasing; sigma_j refers to entry j-1
    simple_roots: list
    dynkin: tuple              # multiset of component labels, e.g. ('E6', 'E6')
    weyl_vector: list          # Fractions
    components: tuple          # per component: dict label -> positive-root index


def positive_simple_roots(roots, gram_pos) -> RootSystemData:
    """Positive roots (first nonzero coordinate > 0), simple roots, Weyl vector."""
    positive = [r for r in roots if _is_positive(r)]
    positive.sort()
    pos_set = set(positive)
    if 2 * len(positive) != len(roots):
        raise AssertionError("roots must come in +- pairs")
    simple = []
    for p in positive:
        if not any(tuple(a - b for a, b in zip(p, q)) in pos_set for q in positive):
            simple.append(p)
    rho = len(gram_pos)
    weyl = [Fraction(sum(p[i] for p in positive), 2) for i in range(rho)]
    comps, labels = _dynkin_components(simple, gram_pos, positive)
    return RootSystemData(list(roots), positive, simple, labels, weyl, comps)


def _is_positive(r) -> bool:
    for x in r:
        if x:
            return x > 0
    return False


def pairing(gram, u, v):
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def dynkin_classify(simple_roots, gram_pos):
    """Multiset of ADE labels of the Coxeter graph of the simple roots."""
    comps, labels = _dynkin_components(simple_roots, gram_pos, None)
    return labels


def _dynkin_components(simple, gram, positive):
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
        if positive is not None:
            naming = {name: positive.index(simple[node]) for name, node in naming.items()}
        comps.append(naming)
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
    modified: list                 # 22 x 22 integer matrix of w_F o F on L
    modified_on_pic: list          # rho x rho integer matrix
    chi_tilde: IntPoly
    chi1_tilde: IntPoly
    trace_tilde: int


def bring_back(pic: PicardLattice, rs: RootSystemData,
               tie_break: str = "lowest") -> BringBackResult:
    """Greedy reflection ascent transporting F's chamber image back.

    Ties among reflections attaining the maximal pairing gain break to the
    lowest positive-root index by default ('highest' picks the other end;
    either way the product is the same Weyl element).  The word is reported
    in composition order: the rightmost reflection acts first.
    """
    rho = pic.rho
    gram = pic.gram_pos
    n = pic.lattice.n
    f_l = companion(pic.chi)
    if rho == 0:
        chi_tilde = IntPoly(tuple(linalg.charpoly(f_l)))
        return BringBackResult((), f_l, [], chi_tilde,
                               chi_tilde.divexact(pic.chi0), chi_tilde.trace())
    pos = rs.positive_roots
    gu = [linalg.mat_vec(gram, list(u)) for u in pos]
    delta = rs.weyl_vector
    delta_u = [sum(delta[i] * gu_k[i] for i in range(rho)) for gu_k in gu]
    if not all(v > 0 for v in delta_u):
        raise AssertionError("Weyl vector must pair positively with every positive root")
    if tie_break not in ("lowest", "highest"):
        raise ValueError("tie_break must be 'lowest' or 'highest'")
    prefer_high = tie_break == "highest"
    d = linalg.mat_vec(pic.f_on_pic, delta)
    applied: list[int] = []
    for _step in range(MAX_ASCENT_STEPS):
        best_k = None
        best_gain = 0
        for k, gu_k in enumerate(gu):
            gain = -sum(d[i] * gu_k[i] for i in range(rho)) * delta_u[k]
            if gain > best_gain or (prefer_high and gain == best_gain and gain > 0):
                best_gain = gain
                best_k = k
        if best_k is None:
            break
        u = pos[best_k]
        du = sum(d[i] * gu[best_k][i] for i in range(rho))
        d = [d[i] - du * u[i] for i in range(rho)]
        applied.append(best_k)
    else:
        raise AssertionError(
            f"reflection ascent failed to terminate within {MAX_ASCENT_STEPS} steps")
    # assemble w_F on Pic and on L
    w_pic = linalg.identity(rho)
    w_l = linalg.identity(n)
    g_l = pic.lattice.gram_a if pic.side == "A" else pic.lattice.gram_b
    for k in applied:
        u = list(pos[k])
        w_pic = linalg.mat_mul(_reflection(gram, u, 1), w_pic)
        u_l = linalg.mat_vec(pic.basis_in_l, u)
        w_l = linalg.mat_mul(_reflection(g_l, u_l, pic.sign_pic), w_l)
    f_tilde_pic = linalg.mat_mul(w_pic, pic.f_on_pic)
    f_tilde = linalg.mat_mul(w_l, f_l)
    chi_tilde = IntPoly(tuple(linalg.charpoly(f_tilde)))
    chi1_tilde = IntPoly(tuple(linalg.charpoly(f_tilde_pic)))
    if chi_tilde != pic.chi0 * chi1_tilde:
        raise AssertionError("modified characteristic polynomial lost the chi0 factor")
    word = tuple(k + 1 for k in reversed(applied))
    return BringBackResult(word, f_tilde, f_tilde_pic, chi_tilde,
                           chi1_tilde, chi_tilde.trace())


def _reflection(gram, u, sign):
    """Matrix of v -> v - sign*(v^T G u) u, the reflection in a norm-2 vector."""
    n = len(u)
    gu = linalg.mat_vec(gram, u)
    out = [[(1 if i == j else 0) - sign * u[i] * gu[j] for j in range(n)] for i in range(n)]
    return out


def preserves_positive_roots(result: BringBackResult, rs: RootSystemData) -> bool:
    pos_set = set(rs.positive_roots)
    if not rs.positive_roots:
        return True
    for u in rs.positive_roots:
        img = tuple(linalg.mat_vec(result.modified_on_pic, list(u)))
        if img not in pos_set:
            return False
    return True


def modified_invariants(result: BringBackResult, pic: PicardLattice):
    """(chi_tilde, trace, chi1_tilde all-cyclotomic check) with exact factorization."""
    if result.chi_tilde != pic.chi0 * result.chi1_tilde:
        raise AssertionError("chi~ must factor as chi0 * chi1~")
    cyclo = classify_product(result.chi1_tilde).all_cyclotomic() \
        if result.chi1_tilde.degree > 0 else True
    return result.chi_tilde, result.trace_tilde, cyclo


def dynkin_action(result: BringBackResult, rs: RootSystemData):
    """Permutation of the simple roots induced by the modified matrix.

    Returns (mapping, cycles) where mapping sends each simple-root position
    to the position of its image and cycles is the cycle decomposition over
    the canonical component labels like 'E6#1:e3'.
    """
    simple = rs.simple_roots
    index_of = {s: i for i, s in enumerate(simple)}
    mapping = []
    for sroot in simple:
        img = tuple(linalg.mat_vec(result.modified_on_pic, list(sroot)))
        if img not in index_of:
            raise AssertionError("image of a simple root is not simple")
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
    names = {}
    for i, s in enumerate(rs.simple_roots):
        pos_idx = rs.positive_roots.index(s)
        names[i] = by_pos[pos_idx]
    return names
