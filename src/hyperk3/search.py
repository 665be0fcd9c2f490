"""Exhaustive searches over cyclotomic-trace products.

The three families:

  deg22    Phi = product of CT_k of total degree 10 (at most one repeated
           index, from {1,2,3,4,6}, multiplicity <= 3), Psi one of the ten
           degree-11 Salem trace polynomials, matrix B;
  lehmerA  Phi = LT * (CT product of degree 5, distinct indices),
           Psi in {R_1..R_10}, matrix A;
  lehmerB  Phi = CT product of degree 10 as in deg22, Psi in {L_1..L_8}
           (the degree-11 LT * CT products), matrix B.

Candidate generation is exhaustive; nothing in here is transcribed from
reference tables (those live in the test fixtures).  As Res(phi, psi) = -Psi(2)
Psi(-2) Res(Phi, Psi)^2 and Res is multiplicative, unimodularity is decided per
factor (``_qualifying``, and LT for lehmerA).  Entries are emitted canonically
sorted so repeated scans are byte-identical.  Workers can run in parallel
across candidates (HYPERK3_THREADS) with a deterministic merge.

The side-B families (deg22, lehmerB) are pruned by gap vectors before any
certification.  ``clusters.gap_vector(CT_k, Psi)`` counts the roots of CT_k
in each of the 11 gaps between Psi's ten inside roots, by rank key; it is
additive, so a candidate's vector is a sum of cached per-factor vectors.
Every CT root lies on [-2, 2], and Psi has one real root above 2 and simple
roots inside (-2, 2), which ``_gap_vectors`` checks: then A_1 and A_(s+1)
are the end gaps, A_2 .. A_s the nonzero interior gaps, and the B clusters
the runs of Psi's roots between them, and side B never tries the antipode
(it needs a root of Psi below -2).  A _HYP_B match needs s, [A_in] and
|A_in| from one row, so the bounds of ``_side_b_bounds`` (read off the rows)
are necessary; each only tightens as factors are added, so the walk of
``_side_b_candidates`` cuts a failing branch and drops no entry.  The
survivors go through ``trace_certificate_explain`` unchanged.  lehmerA
(side A, where the antipode reverses the vector) scans every candidate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import NamedTuple

from . import k3class
from .clusters import gap_vector
from .k3class import K3Certificate, trace_certificate_explain
from .picard import transport
from .polyring import (
    IntPoly,
    cyclotomic_indices_up_to_degree,
    cyclotomic_trace,
    is_unramified,
    lehmer,
    lehmer_nf,
    lehmer_trace,
    resultant,
    salem_trace_deg11,
    totient_degree,
)
from .polyring.roots import endpoint_keys, ranked_roots, root_index
from .siegel import builtin_q, siegel_test, threshold_classify_deg22

MULTIPLE_OK = (1, 2, 3, 4, 6)  # the degree-one indices: integer-rooted CT_k


@lru_cache(maxsize=1)
def ct_catalog() -> tuple[tuple[int, int], ...]:
    """(k, deg CT_k) for every index with degree <= 10, sorted by (deg, k)."""
    idxs = cyclotomic_indices_up_to_degree(10)
    return tuple(sorted(((k, totient_degree(k)) for k in idxs),
                        key=lambda t: (t[1], t[0])))


def list_ct_catalog():
    """Catalog rows (k, degree, unramified) grouped as in the reference table."""
    return [(k, d, is_unramified(cyclotomic_trace(k))) for k, d in ct_catalog()]


def enumerate_ct_products(target_degree: int, multiplicity_rule: str = "sets_only"):
    """All index multisets with sum of CT degrees equal to target_degree.

    'sets_only' yields plain sets; 'one_multiple_le3' additionally allows one
    repeated element from {1, 2, 3, 4, 6} with multiplicity 2 or 3.  Output
    is canonically sorted (each multiset ascending, then lexicographic).
    """
    if target_degree < 0:
        raise ValueError("target degree must be >= 0")
    if multiplicity_rule not in ("sets_only", "one_multiple_le3"):
        raise ValueError("unknown multiplicity rule")
    catalog = ct_catalog()
    out = [tuple(s) for s in _subsets_summing(catalog, target_degree)]
    if multiplicity_rule == "one_multiple_le3":
        for mult in (2, 3):
            if target_degree < mult:  # each copy of the repeated index has degree 1
                continue
            for m in MULTIPLE_OK:
                rest = tuple((k, d) for k, d in catalog if k != m)
                for s in _subsets_summing(rest, target_degree - mult):
                    out.append(tuple(sorted(s + (m,) * mult)))
    canon = sorted({tuple(sorted(m)) for m in out})
    return canon


@lru_cache(maxsize=4)
def _ct_products(target_degree: int, multiplicity_rule: str) -> tuple:
    """enumerate_ct_products as a tuple, built once per degree and rule for the scans."""
    return tuple(enumerate_ct_products(target_degree, multiplicity_rule))


def _subsets_summing(catalog, target):
    """Distinct-index subsets with degree sum == target (ascending tuples)."""
    items = sorted(catalog)
    sols = []

    def rec(i, remaining, acc):
        if remaining == 0:
            sols.append(tuple(acc))
            return
        for j in range(i, len(items)):
            k, d = items[j]
            if d <= remaining:
                acc.append(k)
                rec(j + 1, remaining - d, acc)
                acc.pop()

    rec(0, target, [])
    return sols


def ct_product(multiset) -> IntPoly:
    out = IntPoly.one()
    for k in multiset:
        out = out * cyclotomic_trace(k)
    return out


@dataclass(frozen=True)
class SearchEntry:
    psi_label: str
    k_multiset: tuple[int, ...]
    case: int
    table: str
    st_label: str
    verdict: str
    certificate: K3Certificate
    dynkin: tuple | None = None
    chi1_tilde: IntPoly | None = None
    trace_tilde: int | None = None

    def row(self):
        out = [self.psi_label, str(self.case),
               ",".join(str(k) for k in self.k_multiset), self.st_label, self.verdict]
        if self.dynkin is not None:
            out.insert(4, "+".join(self.dynkin))
            out.insert(5, self.chi1_tilde.format("z"))
            out.insert(6, str(self.trace_tilde))
        return out


def _root_label(tau, poly, prefix: str) -> str:
    """y_j / x_j naming: index 1 is the largest root of poly inside (-2, 2)."""
    ranked = ranked_roots(poly)
    i = root_index(tau, ranked)
    lo, hi = endpoint_keys()
    if i is None or not lo < ranked[i][0] < hi:
        raise AssertionError("special trace is not an inside root of the expected polynomial")
    return f"{prefix}{sum(1 for key, _r in ranked[i:] if key < hi)}"


def _worker_deg22(args):
    i, multiset = args
    R = salem_trace_deg11(i)
    cert, _reason = trace_certificate_explain(ct_product(multiset), R, "B")
    if cert is None:
        return None
    tau = cert.special_trace.retargeted(R)
    verdict = threshold_classify_deg22(tau)  # cross-checks the full Siegel test
    return SearchEntry(f"R{i}", tuple(sorted(multiset)), cert.case, cert.table,
                       _root_label(tau, R, "y"), verdict, cert)


def scan_deg22(r_index: int, jobs: int | None = None) -> list[SearchEntry]:
    """Every K3 configuration with Psi = R_(r_index) and Phi a CT product of degree 10."""
    return scan_deg22_many([r_index], jobs)


def scan_deg22_many(indices, jobs: int | None = None) -> list[SearchEntry]:
    """scan_deg22 for each R_i, i in indices, through one worker pool."""
    candidates = []
    for i in indices:
        if not 1 <= i <= 10:
            raise ValueError("index must be 1..10")
        R = salem_trace_deg11(i)
        if R.trace() != -1:
            raise AssertionError("Salem trace polynomials here must have trace -1")
        candidates += [(i, ms) for ms in _side_b_candidates(R)]
    return _run(_worker_deg22, candidates, jobs)


def _qualifying(Psi: IntPoly, degree: int, multiplicity_rule: str):
    """The CT products of the degree making a unimodular pair with Psi; none if Psi is ramified."""
    if not is_unramified(Psi):
        return []
    ok = {k for k, _d in _unit_factors(Psi)}
    return [m for m in _ct_products(degree, multiplicity_rule) if ok.issuperset(m)]


def _unit_factors(Psi: IntPoly) -> list:
    """(k, deg CT_k) of the catalog factors with |Res(CT_k, Psi)| = 1, in catalog order."""
    return [(k, d) for k, d in ct_catalog() if abs(resultant(cyclotomic_trace(k), Psi)) == 1]


_DEG_PHI = 10  # side B's Phi: the trace polynomial of a degree-22 phi over z^2 - 1


class _Bounds(NamedTuple):
    """What the _HYP_B rows allow the gap vector of Phi."""

    max_gap: int        # largest interior gap: the largest A_in cluster size
    max_multiple: int   # most interior gaps of size >= 2 in one row
    max_ends: int       # end gaps together: deg Phi - the smallest |A_in|
    min_nonzero: int    # fewest nonzero interior gaps: the smallest s, minus 1


def _side_b_bounds() -> _Bounds:
    """The _Bounds, read off k3class._HYP_B on every call, so a row edit moves them."""
    rows = k3class._HYP_B
    return _Bounds(max(max(want_a) for _c, _s, want_a, *_rest in rows),
                   max(sum(n for size, n in want_a.items() if size >= 2)
                       for _c, _s, want_a, *_rest in rows),
                   _DEG_PHI - min(ain for _c, _s, _a, _b, ain, *_rest in rows),
                   min(s for _c, s, *_rest in rows) - 1)


def _fits(g, remaining: int, bounds: _Bounds) -> bool:
    """Whether a partial Phi with gap vector g, short of degree ``remaining``,
    can still match a _HYP_B row.  Every bound only tightens as factors are
    added, so a branch that fails stays failed."""
    interior = g[1:-1]
    nonzero = len(interior) - interior.count(0)
    return (max(interior) <= bounds.max_gap
            and nonzero - interior.count(1) <= bounds.max_multiple
            and g[0] + g[-1] <= bounds.max_ends
            and nonzero + remaining >= bounds.min_nonzero)


@lru_cache(maxsize=32)
def _gap_vectors(Psi: IntPoly) -> tuple:
    """(k, deg CT_k, gap_vector(CT_k, Psi)) for the factors of ``_unit_factors(Psi)``.

    Raises ValueError unless Psi has one real root above 2 and its other
    roots simple inside (-2, 2), and unless every factor's roots lie on
    [-2, 2]: pruning by gap vectors assumes both.
    """
    lo, hi = endpoint_keys()
    ranked = ranked_roots(Psi)
    above = sum(r.multiplicity for key, r in ranked if key > hi)
    inside = [r.multiplicity for key, r in ranked if lo < key < hi]
    if not (above == 1 and inside.count(1) == Psi.degree - 1):
        raise ValueError("side B pruning needs Psi with one real root above 2 and "
                         "all its other roots simple inside (-2, 2)")
    out = tuple((k, d, gap_vector(cyclotomic_trace(k), Psi)) for k, d in _unit_factors(Psi))
    for k, d, g in out:
        if sum(g) != d:
            raise ValueError(f"CT_{k} has a root off [-2, 2]")
    return out


def _side_b_candidates(Psi: IntPoly) -> list:
    """The candidates of _qualifying(Psi, 10, "one_multiple_le3"), in its order,
    whose summed gap vectors fit the _side_b_bounds.

    A depth-first walk over the unit factors adds their gap vectors and cuts
    a branch as soon as ``_fits`` fails; no product is multiplied out.
    """
    if not is_unramified(Psi):
        return []
    bounds, found = _side_b_bounds(), []
    # per factor, each allowed multiplicity with its degree and scaled gap vector
    factors = [(k, [(m, m * d, tuple(m * x for x in g))
                    for m in ((1, 2, 3) if k in MULTIPLE_OK else (1,))])
               for k, d, g in _gap_vectors(Psi)]

    def walk(start, remaining, g, acc, repeated):
        if remaining == 0:
            found.append(tuple(sorted(acc)))
            return
        for j in range(start, len(factors)):
            k, choices = factors[j]
            if choices[0][1] > remaining:
                break  # the catalog runs by increasing degree
            for mult, degree, v in choices[:1] if repeated else choices:
                if degree > remaining:
                    break
                h = tuple(map(add, g, v))
                if _fits(h, remaining - degree, bounds):
                    walk(j + 1, remaining - degree, h, acc + (k,) * mult, repeated or mult > 1)

    walk(0, _DEG_PHI, (0,) * Psi.degree, (), False)
    return sorted(found)


def _entry_key(e: SearchEntry):
    return (e.psi_label[0], int(e.psi_label[1:]), e.case, e.k_multiset)


_Q_BY_DYNKIN = {
    ("E6", "E6"): "fixed_point",
    ("E8", "A2", "A2"): "e8a2a2",
    ("D10",): "d10",
    ("A2",): "a2",
}


def _worker_lehmer_a(args):
    i, kset = args
    R = salem_trace_deg11(i)
    cert, _reason = trace_certificate_explain(lehmer_trace() * ct_product(kset), R, "A")
    return _lehmer_entry(f"R{i}", kset, cert)


def _worker_lehmer_b(args):
    i, multiset = args
    cert, _reason = trace_certificate_explain(ct_product(multiset), lehmer_nf(i), "B")
    return _lehmer_entry(f"L{i}", multiset, cert)


def _lehmer_entry(psi_label: str, multiset, cert) -> SearchEntry | None:
    """The entry of a non-projective certificate whose chi0 is Lehmer's polynomial.

    Attaches the Dynkin type, the modified characteristic factor and its
    trace, and the Siegel verdict for the Dynkin type's q.
    """
    if cert is None or cert.projective or cert.chi0 != lehmer():
        return None
    tau = cert.special_trace.retargeted(lehmer_trace())
    st_label = _root_label(tau, lehmer_trace(), "x")
    _pic, rs, result, _cycles = transport(cert)
    verdict = siegel_test(tau, builtin_q(_Q_BY_DYNKIN[rs.dynkin])).verdict
    return SearchEntry(psi_label, tuple(sorted(multiset)), cert.case, cert.table,
                       st_label, verdict, cert, dynkin=rs.dynkin,
                       chi1_tilde=result.chi1_tilde, trace_tilde=result.trace_tilde)


def scan_lehmer(side: str, jobs: int | None = None) -> list[SearchEntry]:
    """Minimum-entropy scans: side A over (R_i, degree-5 CT sets), side B over (L_i, degree-10 CT products)."""
    if side == "A":
        candidates = [(i, ks) for i in range(1, 11)
                      if abs(resultant(lehmer_trace(), salem_trace_deg11(i))) == 1
                      for ks in _qualifying(salem_trace_deg11(i), 5, "sets_only")]
        return _run(_worker_lehmer_a, candidates, jobs)
    if side == "B":
        candidates = [(i, ms) for i in range(1, 9) for ms in _side_b_candidates(lehmer_nf(i))]
        return _run(_worker_lehmer_b, candidates, jobs)
    raise ValueError("side must be 'A' or 'B'")


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Worker count from --jobs, or from HYPERK3_THREADS when jobs is None.

    An empty value means 1; 0 and 1 both mean serial.  Values above
    os.cpu_count() are capped.  Non-integer or negative values raise
    ValueError before any worker starts.
    """
    if jobs is None:
        jobs = os.environ.get("HYPERK3_THREADS", "")
    if isinstance(jobs, str):
        text = jobs.strip()
        try:
            jobs = int(text) if text else 1
        except ValueError:
            raise ValueError(f"worker count must be an integer, got {text!r}") from None
    if jobs < 0:
        raise ValueError(f"worker count must be >= 0, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _run(worker, candidates, jobs) -> list[SearchEntry]:
    """The entries the worker finds among the candidates, canonically sorted."""
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(candidates) < 4:
        results = [worker(c) for c in candidates]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, candidates, chunksize=16))
    return sorted((e for e in results if e is not None), key=_entry_key)
