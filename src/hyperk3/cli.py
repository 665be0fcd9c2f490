"""Command-line front end.

Commands: build, certify, picard, bringback, siegel, scan, unit, recover,
catalog.  Output formats: json (canonical, byte-stable), tsv, pretty.
Exit codes: 0 success, 2 parse/usage error, 3 precondition violation,
4 a classification came back empty under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .hyplattice import build_lattice, is_unimodular
from .k3class import k3_certificate_explain
from .numfield import recover_phi, unit_from_gram, verify_unit
from .picard import PositivityError, picard_from_certificate, transport
from .polyring import (
    IntPoly,
    ParseError,
    palindrome_class,
    palindromic_expand,
    parse_poly,
)
from .polyring.roots import AlgebraicReal, isolate_real_roots
from .search import list_ct_catalog, resolve_jobs, scan_deg22_many, scan_lehmer
from .siegel import Q_LABELS, builtin_q, siegel_test


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_or_die(text: str, what: str):
    try:
        return parse_poly(text)
    except ParseError as exc:
        raise CliError(f"cannot parse {what}: {exc}", 2)


def normalize_pair(phi_text: str, psi_text: str):
    """Accept z-level, trace-level or palindromic-core inputs for the pair.

    --psi may be the palindromic psi(z) or the trace polynomial Psi(w);
    --phi may be the anti-palindromic phi(z), the trace polynomial Phi(w),
    or the palindromic core z^(N-1) Phi(z+1/z) (then phi = (z^2-1) * core).
    """
    var_phi, p_phi = _parse_or_die(phi_text, "--phi")
    var_psi, p_psi = _parse_or_die(psi_text, "--psi")
    if var_psi == "w":
        psi = palindromic_expand(p_psi)
    else:
        psi = p_psi
    if psi.is_zero() or palindrome_class(psi) != "palindromic":
        raise CliError("--psi must give a palindromic polynomial", 3)
    n = psi.degree
    if var_phi == "w":
        phi = IntPoly((-1, 0, 1)) * palindromic_expand(p_phi)
    else:
        cls = palindrome_class(p_phi) if not p_phi.is_zero() else "neither"
        if cls == "anti_palindromic":
            phi = p_phi
        elif cls == "palindromic" and p_phi.degree == n - 2:
            phi = IntPoly((-1, 0, 1)) * p_phi
        else:
            raise CliError(
                "--phi must be anti-palindromic, or the palindromic core of "
                "degree rank-2, or a polynomial in w", 3)
    if phi.degree != n:
        raise CliError(f"degree mismatch: phi has degree {phi.degree}, psi {n}", 3)
    return phi, psi


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _alg_json(a: AlgebraicReal, width: Fraction):
    b = a.refined(width)
    lo, hi = b.interval
    return {
        "minpoly": b.minpoly.format("w"),
        "interval": [_fr(lo), _fr(hi)],
        "decimal": b.to_decimal(max(2, _width_digits(width))),
    }


def _width_digits(width: Fraction) -> int:
    d = 0
    w = Fraction(1)
    while w > width and d < 40:
        w /= 10
        d += 1
    return d


def _report(args, inputs, result, warnings=(), exit_code=0):
    return {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "warnings": list(warnings),
        "exit_code": exit_code,
    }


def _emit(report, fmt, tsv_rows=None, pretty_lines=None):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    elif fmt == "tsv":
        for row in tsv_rows if tsv_rows is not None else _default_tsv(report):
            print("\t".join(str(x) for x in row))
    else:
        for line in pretty_lines if pretty_lines is not None else _default_pretty(report):
            print(line)


def _default_tsv(report):
    out = []
    for key, val in sorted(report["result"].items()):
        out.append([key, json.dumps(val, sort_keys=True)])
    return out


def _default_pretty(report):
    lines = [f"command: {report['command']}"]
    for key, val in report["inputs"].items():
        lines.append(f"  {key}: {val}")
    lines.append("result:")
    lines.append(json.dumps(report["result"], sort_keys=True, indent=2))
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    return lines


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build(args):
    phi, psi = normalize_pair(args.phi, args.psi)
    lat = build_lattice(phi, psi)
    result = {
        "rank": lat.n,
        "phi": phi.format("z"),
        "psi": psi.format("z"),
        "gram_a": lat.gram_a,
        "gram_b": lat.gram_b,
        "mat_a": lat.mat_a,
        "mat_b": lat.mat_b,
        "mat_c": lat.mat_c,
        "disc": lat.disc,
        "unimodular": is_unimodular(phi, psi),
    }
    return _report(args, {"phi": phi.format("z"), "psi": psi.format("z")}, result), None, None


def cmd_certify(args):
    phi, psi = normalize_pair(args.phi, args.psi)
    cert, reason = _certify_any(phi, psi, args.side)
    inputs = {"phi": phi.format("z"), "psi": psi.format("z"),
              "side": args.side or "auto"}
    if cert is None:
        code = 4 if args.strict else 0
        return _report(args, inputs, {"certified": False, "reason": reason},
                       exit_code=code), None, None
    width = args.refine
    result = {
        "certified": True,
        "side": cert.side,
        "table": cert.table,
        "case": cert.case,
        "type": cert.hodge_type,
        "special_trace": _alg_json(cert.special_trace, width),
        "renormalized": cert.renormalized,
        "antipode": cert.antipode,
        "chi0": cert.chi0.format("z"),
        "chi1": cert.chi1.format("z"),
        "rho": cert.rho,
        "projective": cert.projective,
    }
    return _report(args, inputs, result), None, None


def _certify_any(phi, psi, side):
    if side is not None:
        return k3_certificate_explain(phi, psi, side)
    cert, reason = k3_certificate_explain(phi, psi, "B")
    if cert is not None:
        return cert, None
    cert2, reason2 = k3_certificate_explain(phi, psi, "A")
    if cert2 is not None:
        return cert2, None
    return None, f"side B: {reason}; side A: {reason2}"


def _pipeline(args):
    """The report inputs and the non-projective certificate of picard and bringback."""
    phi, psi = normalize_pair(args.phi, args.psi)
    cert, reason = _certify_any(phi, psi, args.side)
    if cert is None:
        raise CliError(f"no certificate: {reason}", 4 if args.strict else 3)
    if cert.projective:
        raise CliError("projective case: the chamber transport is out of scope", 3)
    return {"phi": phi.format("z"), "psi": psi.format("z"), "side": args.side}, cert


def cmd_picard(args):
    inputs, cert = _pipeline(args)
    pic = picard_from_certificate(cert)
    result = {
        "rho": pic.rho,
        "gram_pos": pic.gram_pos,
        "f_on_pic": pic.f_on_pic,
        "chi0": cert.chi0.format("z"),
        "chi1": cert.chi1.format("z"),
    }
    return _report(args, inputs, result), None, None


def cmd_bringback(args):
    inputs, cert = _pipeline(args)
    try:
        _pic, rs, res, cycles = transport(cert)
    except PositivityError:
        raise CliError("internal: modified matrix fails to preserve positive roots", 3)
    result = {
        "roots": len(rs.all_roots),
        "positive_roots": len(rs.positive_roots),
        "simple_roots": len(rs.simple_roots),
        "dynkin": list(rs.dynkin),
        "word": list(res.word),
        "modified_matrix": res.modified,
        "chi1_tilde": res.chi1_tilde.format("z"),
        "trace": res.trace_tilde,
        "dynkin_action": [list(c) for c in cycles],
    }
    pretty = [
        f"roots: {len(rs.all_roots)}  positive: {len(rs.positive_roots)}  simple: {len(rs.simple_roots)}",
        f"dynkin type: {' + '.join(rs.dynkin) if rs.dynkin else '(empty)'}",
        "word: " + (" o ".join(f"s{j}" for j in res.word) if res.word else "(identity)"),
        f"chi1~: {res.chi1_tilde.format('z')}",
        f"trace: {res.trace_tilde}",
        "action: " + ("".join("(" + ",".join(c) + ")" for c in cycles) if cycles else "identity"),
    ]
    return _report(args, inputs, result), None, pretty


def cmd_siegel(args):
    var, poly = _parse_or_die(args.tau_from, "--tau-from")
    if var == "z" or poly.degree < 1:
        raise CliError("--tau-from must be a polynomial in w", 3)
    q = builtin_q(args.q)
    width = args.refine
    verdicts = []
    for root in isolate_real_roots(poly):
        if not (-2 < root < 2):
            continue
        v = siegel_test(root, q)
        verdicts.append({
            "tau": _alg_json(root, width),
            "verdict": v.verdict,
            "witness": _alg_json(v.witness, width) if v.witness is not None else None,
        })
    result = {"q": args.q, "verdicts": verdicts}
    inputs = {"tau_from": poly.format("w"), "q": args.q}
    rows = [[v["tau"]["decimal"], v["verdict"]] for v in verdicts]
    return _report(args, inputs, result), rows, None


def cmd_scan(args):
    if args.psi and args.family != "deg22":
        raise CliError("--psi applies only to --family deg22", 2)
    jobs = resolve_jobs(args.jobs)
    if args.family == "deg22":
        entries = scan_deg22_many([int(args.psi[1:])] if args.psi else range(1, 11), jobs)
    elif args.family == "lehmerA":
        entries = scan_lehmer("A", jobs)
    elif args.family == "lehmerB":
        entries = scan_lehmer("B", jobs)
    else:
        raise CliError("--family must be deg22, lehmerA or lehmerB", 2)
    records = [dict(zip(_scan_fields(e), e.row())) for e in entries]
    if args.format == "json":
        # JSON-lines: one entry per line
        for record in records:
            print(json.dumps(record, sort_keys=True, separators=(",", ":")))
        return None, None, None
    inputs = {"family": args.family}
    if args.psi:
        inputs["psi"] = args.psi
    result = {"family": args.family, "entries": records, "count": len(entries)}
    rows = [list(record.values()) for record in records]
    return _report(args, inputs, result), rows, ["\t".join(r) for r in rows]


def _scan_fields(e):
    if e.dynkin is None:
        return ("psi", "case", "k", "st", "verdict")
    return ("psi", "case", "k", "st", "dynkin", "chi1_tilde", "trace", "verdict")


def cmd_unit(args):
    phi, psi = normalize_pair(args.phi, args.psi)
    cert, reason = k3_certificate_explain(phi, psi, "B")
    if cert is None:
        raise CliError(f"no side-B certificate: {reason}", 4 if args.strict else 3)
    lat = build_lattice(cert.phi, cert.psi)
    sign = -1 if cert.renormalized else 1
    row = [sign * v for v in lat.xi_extended("B", cert.Psi.degree - 1)]
    data = unit_from_gram(row, cert.Psi)
    # the compatibility clause applies when the unit ring is the full trace
    # ring of psi, i.e. when chi0 = psi (Picard number zero)
    ok, why = verify_unit(data.U, data.R, cert.special_trace if cert.rho == 0 else None)
    result = {
        "U": data.U.format("w"),
        "R": data.R.format("w"),
        "u": list(data.u),
        "unit_verified": ok,
        "gram_row": row,
    }
    warnings = [] if ok else [f"verification failed: {why}"]
    return _report(args, {"phi": phi.format("z"), "psi": psi.format("z")},
                   result, warnings), None, None


def cmd_recover(args):
    var_u, u_poly = _parse_or_die(args.unit, "--unit")
    var_s, s_poly = _parse_or_die(args.salem, "--salem")
    if var_u == "z":
        raise CliError("--unit must be a polynomial in w", 3)
    if var_s == "w":
        s_poly = palindromic_expand(s_poly)
    try:
        Phi = recover_phi(u_poly, s_poly)
    except ValueError as exc:
        raise CliError(str(exc), 3)
    result = {"Phi": Phi.format("w")}
    return _report(args, {"unit": u_poly.format("w"), "salem": s_poly.format("z")},
                   result), None, None


def cmd_catalog(args):
    rows = list_ct_catalog()
    result = {
        "entries": [{"k": k, "degree": d, "unramified": u} for k, d, u in rows],
        "count": len(rows),
        "unramified_count": sum(1 for _k, _d, u in rows if u),
    }
    tsv = [[k, d, "unramified" if u else ""] for k, d, u in rows]
    pretty = [f"CT({k})  degree {d}  {'unramified' if u else 'ramified':>10}"
              for k, d, u in rows]
    pretty.append(f"total {len(rows)}, unramified {result['unramified_count']}")
    return _report(args, {}, result), tsv, pretty


# ---------------------------------------------------------------------------


def _add_pair(sp, side=False):
    sp.add_argument("--phi", required=True, help="polynomial expression")
    sp.add_argument("--psi", required=True, help="polynomial expression")
    if side:
        sp.add_argument("--side", choices=("A", "B"), default=None,
                        help="which companion matrix acts (default: try B, then A)")


def _positive_fraction(text: str) -> Fraction:
    """--refine's type: a fraction above 0, else a usage error (exit 2)."""
    try:
        width = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")
    if width <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return width


def make_parser() -> argparse.ArgumentParser:
    def add_common(parser, suppress):
        # the subparsers re-declare the shared flags with SUPPRESS defaults so
        # a flag given before the subcommand is not clobbered afterwards
        kw = {"default": argparse.SUPPRESS} if suppress else {}
        parser.add_argument("--format", choices=("json", "tsv", "pretty"),
                            **(kw or {"default": "json"}))
        parser.add_argument("--strict", action="store_true",
                            help="exit 4 when a classification returns nothing",
                            **(kw if suppress else {}))
        parser.add_argument("--refine", type=_positive_fraction,
                            help="interval width for displayed algebraic numbers",
                            **(kw or {"default": Fraction(1, 10 ** 8)}))

    ap = argparse.ArgumentParser(
        prog="hyperk3",
        description="exact hypergeometric lattices and K3 automorphism synthesis")
    add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def new(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        add_common(sp, suppress=True)
        return sp

    _add_pair(new("build", "lattice record of a pair"))
    _add_pair(new("certify", "K3 certificate"), side=True)
    _add_pair(new("picard", "Picard lattice data"), side=True)
    _add_pair(new("bringback", "chamber transport pipeline"), side=True)

    sp = new("siegel", "Siegel/hyperbolic verdicts")
    sp.add_argument("--tau-from", required=True, dest="tau_from")
    sp.add_argument("--q", choices=Q_LABELS, required=True)

    sp = new("scan", "table-reproducing searches")
    sp.add_argument("--family", choices=("deg22", "lehmerA", "lehmerB"), required=True)
    sp.add_argument("--psi", choices=[f"R{i}" for i in range(1, 11)], metavar="R1..R10",
                    help="restrict deg22 to one R_i")
    sp.add_argument("--jobs", default=None,
                    help="worker processes, capped at the CPU count "
                         "(default: HYPERK3_THREADS or 1)")

    _add_pair(new("unit", "number-field unit of a side-B pair"))

    sp = new("recover", "recover Phi from (U, S)")
    sp.add_argument("--unit", required=True)
    sp.add_argument("--salem", required=True)

    new("catalog", "cyclotomic trace polynomial catalog")
    return ap


_DISPATCH = {
    "build": cmd_build,
    "certify": cmd_certify,
    "picard": cmd_picard,
    "bringback": cmd_bringback,
    "siegel": cmd_siegel,
    "scan": cmd_scan,
    "unit": cmd_unit,
    "recover": cmd_recover,
    "catalog": cmd_catalog,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """make_parser(), built once per process on first use; parsing leaves it unchanged."""
    return make_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report, tsv_rows, pretty = _DISPATCH[args.command](args)
    except CliError as exc:
        print(f"hyperk3: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"hyperk3: precondition violated: {exc}", file=sys.stderr)
        return 3
    if report is not None:
        _emit(report, args.format, tsv_rows, pretty)
        return report["exit_code"]
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
