"""CLI dispatch, formats, exit codes and report stability."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperk3
from hyperk3 import cli
from hyperk3.cli import run


def cap(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, buf.getvalue(), err.getvalue()


def test_build_basic():
    rc, out, _ = cap(["build", "--phi", "z^2-1", "--psi", "z^2+z+1"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["command"] == "build"
    assert rep["result"]["gram_a"] == [[2, 1], [1, 2]]
    assert rep["result"]["disc"] == 3
    assert rep["result"]["unimodular"] is False


def test_json_byte_stable():
    rc1, out1, _ = cap(["catalog"])
    rc2, out2, _ = cap(["catalog"])
    assert rc1 == rc2 == 0 and out1 == out2
    rep = json.loads(out1)
    assert rep["result"]["count"] == 41
    assert rep["result"]["unramified_count"] == 15
    # round trip: parse and re-serialize is identity
    assert json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n" == out1


def test_certify_reference_row():
    rc, out, _ = cap(["certify", "--phi", "C(1)^3*C(3)*C(4)*C(6)*C(16)",
                      "--psi", "z^11*R(1)@z"])
    assert rc == 0
    rep = json.loads(out)
    res = rep["result"]
    assert res["certified"] and res["side"] == "B"
    assert (res["table"], res["case"]) == ("hyp-B", 1)
    assert res["special_trace"]["decimal"].startswith("-1.6671")
    assert res["rho"] == 0


def test_certify_side_a():
    rc, out, _ = cap(["certify", "--phi", "LT*CT(3)*CT(4)*CT(6)*CT(8)",
                      "--psi", "R(3)", "--side", "A"])
    rep = json.loads(out)
    assert rep["result"]["case"] == 7 and rep["result"]["rho"] == 12


def test_parse_error_exit_2():
    rc, _out, err = cap(["build", "--phi", "z^^2", "--psi", "z^2+z+1"])
    assert rc == 2 and "parse" in err


def test_precondition_exit_3():
    rc, _out, err = cap(["build", "--phi", "z^2+z+1", "--psi", "z^2+z+1"])
    assert rc == 3


def test_bad_jobs_exit_3(monkeypatch):
    rc, _out, err = cap(["scan", "--family", "deg22", "--psi", "R7", "--jobs", "-1"])
    assert rc == 3 and "worker count" in err
    monkeypatch.setenv("HYPERK3_THREADS", "abc")
    rc, _out, err = cap(["scan", "--family", "deg22", "--psi", "R7"])
    assert rc == 3 and "worker count" in err


@pytest.mark.parametrize("width", ["0", "-1/2", "1/0"])
def test_bad_refine_exit_2(width):
    """--refine takes a positive fraction; 0 once made root refinement loop forever."""
    tail = ["siegel", "--tau-from", "R(1)", "--q", "fixed_point"]
    for argv in ([f"--refine={width}", *tail], [*tail, f"--refine={width}"]):
        with pytest.raises(SystemExit):  # fails fast instead of hanging in run()
            with contextlib.redirect_stderr(io.StringIO()):
                cli._parser().parse_args(argv)
        rc, out, err = cap(argv)
        assert (rc, out) == (2, ""), argv
        assert "argument --refine" in err


@pytest.mark.parametrize("argv", [
    ["--family", "deg22", "--psi", "L7"],
    ["--family", "deg22", "--psi", "R11"],
    ["--family", "deg22", "--psi", "R0"],
    ["--family", "lehmerA", "--psi", "R7"],
    ["--family", "lehmerB", "--psi", "R7"],
], ids=["L7", "R11", "R0", "lehmerA", "lehmerB"])
def test_bad_scan_psi_exit_2_before_any_work(argv, monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(cli, "scan_deg22", no_work)
    monkeypatch.setattr(cli, "scan_lehmer", no_work)
    rc, out, err = cap(["scan", *argv])
    assert (rc, out) == (2, "")
    assert "--psi" in err


def test_strict_none_exit_4():
    rc, out, _ = cap(["--strict", "certify", "--phi", "CT(5)*CT(7)*CT(11)",
                      "--psi", "R(1)", "--side", "B"])
    assert rc == 4
    rep = json.loads(out)
    assert rep["result"]["certified"] is False
    rc, _, _ = cap(["certify", "--phi", "CT(5)*CT(7)*CT(11)",
                    "--psi", "R(1)", "--side", "B"])
    assert rc == 0


def test_unknown_command_exit_2():
    rc, _out, _err = cap(["frobnicate"])
    assert rc == 2


def test_siegel_verdicts():
    rc, out, _ = cap(["siegel", "--tau-from", "R(1)", "--q", "fixed_point"])
    assert rc == 0
    rep = json.loads(out)
    verdicts = rep["result"]["verdicts"]
    assert len(verdicts) == 10
    # exactly the roots below 1 - 2 sqrt 2 are hyperbolic: y9 and y10 here
    assert sum(1 for v in verdicts if v["verdict"] == "H") == 2
    assert all(v["verdict"] in ("S", "H") for v in verdicts)


def test_bringback_pretty_and_json():
    args = ["bringback", "--phi", "LT*CT(3)*CT(4)*CT(6)*CT(8)", "--psi", "R(3)",
            "--side", "A"]
    rc, out, _ = cap(args)
    rep = json.loads(out)
    res = rep["result"]
    assert res["roots"] == 144 and res["positive_roots"] == 72
    assert res["simple_roots"] == 12 and res["dynkin"] == ["E6", "E6"]
    assert res["trace"] == -1
    rc, out, _ = cap(args + ["--format", "pretty"])
    assert rc == 0 and "E6 + E6" in out


def test_bringback_l8_row():
    """The min_b.tsv row L8 1 2,2,2,7,16, whose raw Picard basis is the most skewed."""
    from hyperk3.polyring import parse_poly

    rc, out, _ = cap(["bringback", "--phi", "CT(2)^3*CT(7)*CT(16)", "--psi", "LNF(8)",
                      "--side", "B"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["roots"] == 252 and res["dynkin"] == ["E8", "A2", "A2"]
    assert res["chi1_tilde"] == parse_poly("(z-1)^9*(z+1)*(z^2+1)")[1].format("z")
    assert res["trace"] == 7


def test_scan_tsv_row_layout():
    rc, out, _ = cap(["scan", "--family", "deg22", "--psi", "R4", "--format", "tsv"])
    assert rc == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert len(rows) == 16
    assert all(len(r) == 5 for r in rows)
    assert rows[0][0] == "R4"


def test_scan_jsonl():
    rc, out, _ = cap(["scan", "--family", "deg22", "--psi", "R4"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    first = json.loads(lines[0])
    assert set(first) == {"psi", "case", "k", "st", "verdict"}


def test_unit_and_recover():
    rc, out, _ = cap(["unit", "--phi", "C(1)^3*C(3)*C(4)*C(6)*C(16)",
                      "--psi", "z^11*R(1)@z"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["result"]["unit_verified"] is True
    assert rep["result"]["U"].startswith("-w^10 + 6*w^9")
    u_text = rep["result"]["U"].replace(" ", "")
    rc, out, _ = cap([f"recover", f"--unit={u_text}", "--salem", "z^11*R(1)@z"])
    assert rc == 0
    rep2 = json.loads(out)
    assert rep2["result"]["Phi"].replace(" ", "").startswith("w^10")


def test_picard_record():
    rc, out, _ = cap(["picard", "--phi", "LT*CT(4)*CT(20)", "--psi", "R(1)",
                      "--side", "A"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["result"]["rho"] == 12
    gram = rep["result"]["gram_pos"]
    assert len(gram) == 12 and gram[0][0] % 2 == 0


def _first_call(argv):
    """stdout of run(argv) as the first call of a fresh interpreter."""
    src = Path(hyperk3.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys; from hyperk3.cli import run; sys.exit(run(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv", [
    ["siegel", "--tau-from", "R(1)", "--q", "fixed_point"],
    ["certify", "--phi", "LT*CT(4)*CT(20)", "--psi", "R(1)", "--side", "A"],
], ids=["siegel", "certify"])
def test_output_independent_of_earlier_refine(argv):
    """A finer --refine in an earlier call does not narrow a later call's intervals."""
    first = cap(argv)
    fine = cap(argv + ["--refine", "1/1" + "0" * 30])
    again = cap(argv)
    assert first[0] == fine[0] == again[0] == 0
    assert fine[1] != first[1]
    assert again == first


def test_parser_reuse_keeps_defaults():
    """A reused parser carries no flag from one call into the next."""
    cli._parser.cache_clear()
    calls = [["--format", "tsv", "catalog"], ["catalog"],
             ["catalog", "--format", "pretty"], ["catalog"]]
    for argv in calls:
        rc, out, _ = cap(argv)
        assert (rc, out) == _first_call(argv), argv
    assert cli._parser.cache_info().misses == 1
