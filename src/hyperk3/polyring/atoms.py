"""Named Salem/Lehmer polynomials and related built-in atoms.

Everything is constructed from short product formulas and cross-checked by
the test suite (unramifiedness, Salem root patterns, trace identities).
"""

from __future__ import annotations

from functools import lru_cache

from .poly import IntPoly, cyclotomic_trace, palindromic_expand

w = IntPoly.variable()
_ONE = IntPoly.one()


def lehmer() -> IntPoly:
    """Smallest known Salem polynomial: z^10 + z^9 - z^7 - z^6 - z^5 - z^4 - z^3 + z + 1."""
    return IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def lehmer_trace() -> IntPoly:
    """Trace polynomial of the Lehmer polynomial: (w+1)(w^2-1)(w^2-4) - 1."""
    return (w + 1) * (w * w - 1) * (w * w - 4) - 1


@lru_cache(maxsize=10)
def salem_trace_deg11(i: int) -> IntPoly:
    """The ten degree-11 unramified Salem trace polynomials R_1 .. R_10."""
    if not 1 <= i <= 10:
        raise ValueError("Salem trace index must be 1..10")
    table = {
        1: w * (w - 1) * (w + 1) ** 2 * (w ** 2 - 4)
           * (w ** 5 - 6 * w ** 3 + 8 * w - 2) - 1,
        2: (w + 1) * (w ** 2 - 4)
           * (w ** 8 - 8 * w ** 6 - w ** 5 + 19 * w ** 4 + 3 * w ** 3 - 12 * w ** 2 + 1) - 1,
        3: w * (w - 1) * (w + 1) ** 2 * (w ** 2 - 4)
           * (w ** 5 - 6 * w ** 3 - w ** 2 + 8 * w + 1) - 1,
        4: w ** 2 * (w + 1) * (w ** 2 - 4) * (w ** 2 + w - 1)
           * (w ** 4 - w ** 3 - 5 * w ** 2 + 3 * w + 5) - 1,
        5: (w - 1) * (w + 1) ** 2 * (w ** 2 - 4)
           * (w ** 6 - 7 * w ** 4 - w ** 3 + 12 * w ** 2 + 2 * w - 1) - 1,
        6: w * (w + 1) ** 2 * (w ** 2 - 4) * (w ** 2 + w - 1)
           * (w ** 4 - 2 * w ** 3 - 3 * w ** 2 + 6 * w - 1) - 1,
        7: (w + 1) * (w ** 2 - 4)
           * (w ** 8 - 8 * w ** 6 - w ** 5 + 19 * w ** 4 + 2 * w ** 3 - 14 * w ** 2 + 2) - 1,
        8: w * (w + 1) ** 2 * (w ** 2 - 4)
           * (w ** 6 - w ** 5 - 7 * w ** 4 + 5 * w ** 3 + 13 * w ** 2 - 6 * w - 2) - 1,
        9: w * (w + 1) * (w ** 2 - 4)
           * (w ** 7 - 9 * w ** 5 - 2 * w ** 4 + 25 * w ** 3 + 9 * w ** 2 - 20 * w - 8) - 1,
        10: w * (w + 1) ** 2 * (w ** 2 - 3) * (w ** 2 - 4)
            * (w ** 4 - w ** 3 - 4 * w ** 2 + 2 * w + 1) - 1,
    }
    return table[i]


def salem_deg22(i: int) -> IntPoly:
    """S_i(z) = z^11 R_i(z + 1/z), the degree-22 Salem polynomial."""
    return palindromic_expand(salem_trace_deg11(i))


def salem_trace_mt() -> IntPoly:
    """MT(w) = (w+1)(w-2)(w^3 - w^2 - 4w + 1) - 1, a degree-5 Salem trace."""
    return (w + 1) * (w - 2) * (w ** 3 - w ** 2 - 4 * w + 1) - 1


def salem_m() -> IntPoly:
    """The Salem polynomial with trace polynomial MT."""
    return palindromic_expand(salem_trace_mt())


def salem_trace_nt() -> IntPoly:
    """NT(w) = (w^2 - 2w - 2)(w^3 - 3w + 1) - 1, a degree-5 Salem trace."""
    return (w ** 2 - 2 * w - 2) * (w ** 3 - 3 * w + 1) - 1


@lru_cache(maxsize=8)
def lehmer_nf(i: int) -> IntPoly:
    """The eight degree-11 products L_1 .. L_8 of LT with unramified CT factors."""
    if not 1 <= i <= 8:
        raise ValueError("index must be 1..8")
    parts = {
        1: (21,), 2: (28,), 3: (36,), 4: (42,),
        5: (12, 15), 6: (12, 20), 7: (12, 24), 8: (12, 30),
    }[i]
    out = lehmer_trace()
    for k in parts:
        out = out * cyclotomic_trace(k)
    return out
