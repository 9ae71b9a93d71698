import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circuitforge import DensePoly, Rationals, expand, parse_circuit
from circuitforge.cli import main

LIFT_INPUT = """field rationals
nvars 3
g1 = input x1
g2 = input x2
g3 = input x3
g4 = const 1
g5 = mul g1 g2
g6 = add g4 g1 g5
g7 = const -1
g8 = mul g7 g6
g9 = add g3 g8
g10 = const 3
g11 = mul g7 g10
g12 = add g3 g11
g13 = mul g9 g12
output g13
"""  # (y - (1 + x1 + x1 x2)) * (y - 3) with y = x3


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_eval_command(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT)
    assert main(["eval", path, "--point", "1,1,0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "9"  # (0 - 3)(0 - 3) = 9


def test_metrics_command(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT)
    assert main(["metrics", path]) == 0
    m = json.loads(capsys.readouterr().out)
    assert set(m) == {"size", "gates", "depth", "formal_degree"}
    assert m["formal_degree"] == 3


def test_expand_command(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT)
    assert main(["expand", path]) == 0
    body = capsys.readouterr().out
    assert "field rationals" in body and "nvars 3" in body


def test_lift_root_and_verify(tmp_path, capsys):
    src = _write(tmp_path, "p.circ", LIFT_INPUT)
    root = str(tmp_path / "root.circ")
    cert = str(tmp_path / "cert.json")
    rc = main(["--seed", "5", "lift-root", "-y", "3", "-d", "2", src, "-o", root, "--cert", cert])
    assert rc == 0
    data = json.loads((tmp_path / "cert.json").read_text())
    assert data["data"]["residual_mode"] == "oracle"
    assert main(["verify", cert]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["result"] == "pass"


def test_verify_detects_tampering(tmp_path):
    src = _write(tmp_path, "p.circ", LIFT_INPUT)
    root = str(tmp_path / "root.circ")
    cert = str(tmp_path / "cert.json")
    main(["lift-root", "-y", "3", "-d", "2", src, "-o", root, "--cert", cert])
    with open(root, "a") as fh:
        fh.write("# tampered\ng99 = const 1\n")
    assert main(["verify", cert]) == 1


def test_lift_root_rootless_exits_one(tmp_path):
    bad = _write(tmp_path, "bad.circ",
                 "field rationals\nnvars 2\ng1 = input x1\ng2 = input x2\n"
                 "g3 = mul g2 g2\ng4 = const -1\ng5 = mul g4 g1\ng6 = add g3 g5\noutput g6\n")
    rc = main(["lift-root", "-y", "2", "-d", "2", bad, "-o", str(tmp_path / "r.circ")])
    assert rc == 1


def test_lift_root_of_the_zero_polynomial_exits_one(tmp_path, capsys):
    zero = _write(tmp_path, "zero.circ", "field rationals\nnvars 2\ng1 = const 0\noutput g1\n")
    rc = main(["lift-root", "-y", "2", "-d", "1", zero, "-o", str(tmp_path / "r.circ")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "zero polynomial" in err and "Traceback" not in err


def test_certificates_are_deterministic(tmp_path):
    src = _write(tmp_path, "p.circ", LIFT_INPUT)
    certs = []
    for tag in ("a", "b"):
        root = str(tmp_path / f"root_{tag}.circ")
        cert = str(tmp_path / f"cert_{tag}.json")
        assert main(["--seed", "9", "lift-root", "-y", "3", "-d", "2", src, "-o", root, "--cert", cert]) == 0
        body = json.loads((tmp_path / f"cert_{tag}.json").read_text())
        body["outputs"] = {k: v["sha256"] for k, v in body["outputs"].items()}
        certs.append((body["outputs"], (tmp_path / f"root_{tag}.circ").read_bytes()))
    assert certs[0] == certs[1]


def test_factor_command(tmp_path, capsys):
    text = """field rationals
nvars 3
g1 = input x1
g2 = input x2
g3 = input x3
g4 = const -1
g5 = mul g4 g1
g6 = add g3 g5
g7 = const 1
g8 = add g7 g2
g9 = mul g4 g8
g10 = add g3 g9
g11 = const -7
g12 = add g3 g11
g13 = mul g6 g10 g12
output g13
"""
    src = _write(tmp_path, "f.circ", text)
    out = str(tmp_path / "factor.circ")
    cert = str(tmp_path / "cert.json")
    rc = main(["factor", "-y", "3", "-d", "2", "--subset", "1,2", src, "-o", out, "--cert", cert])
    assert rc == 0
    data = json.loads((tmp_path / "cert.json").read_text())
    assert data["data"]["subset"] == [1, 2]
    assert main(["verify", cert]) == 0


def test_factor_subset_out_of_range_is_a_usage_error(tmp_path, capsys):
    # (y - x1)(y - 1 - x2)(y - 7) with y = x3: three simple roots
    text = """field rationals
nvars 3
g1 = input x1
g2 = input x2
g3 = input x3
g4 = const -1
g5 = mul g4 g1
g6 = add g3 g5
g7 = const 1
g8 = add g7 g2
g9 = mul g4 g8
g10 = add g3 g9
g11 = const -7
g12 = add g3 g11
g13 = mul g6 g10 g12
output g13
"""
    src = _write(tmp_path, "f.circ", text)
    assert main(["factor", "-y", "3", "-d", "2", "--subset", "1,9", src]) == 2
    err = capsys.readouterr().err
    assert "ParameterViolation" in err and "3 simple roots" in err
    assert "Traceback" not in err
    # more roots than the degree bound, or a repeated root, names no factor
    # of degree <= d
    for d, subset in (("1", "1,2"), ("2", "1,1")):
        assert main(["factor", "-y", "3", "-d", d, "--subset", subset, src]) == 2
        err = capsys.readouterr().err
        assert "ParameterViolation" in err and "distinct roots" in err
        assert "Traceback" not in err


def test_factor_subset_names_a_repeated_factor(tmp_path):
    # (y - x1)^2 with y = x2: root 1 of the derivative's slice is y - x1, twice
    text = """field rationals
nvars 2
g1 = input x1
g2 = input x2
g3 = const -1
g4 = mul g3 g1
g5 = add g2 g4
g6 = mul g5 g5
output g6
"""
    src = _write(tmp_path, "square.circ", text)
    out, cert = str(tmp_path / "factor.circ"), str(tmp_path / "cert.json")
    assert main(["factor", "-y", "2", "-d", "1", "--subset", "1", src, "-o", out, "--cert", cert]) == 0
    data = json.loads((tmp_path / "cert.json").read_text())["data"]
    assert (data["subset"], data["multiplicity"], data["deriv_level"]) == ([1], 2, 1)
    x1, y = (DensePoly.variable(Rationals(), 2, v) for v in (0, 1))
    assert expand(parse_circuit((tmp_path / "factor.circ").read_text())) == y - x1
    assert main(["verify", cert]) == 0


def test_oversized_design_is_refused_before_any_work(tmp_path, capsys):
    # n = 100000 passes n < 2^m; the design's law check alone would take hours
    t0 = time.perf_counter()
    rc = main(["design", "-n", "100000", "-m", "40", "-o", str(tmp_path / "d.json")])
    assert rc == 2 and time.perf_counter() - t0 < 1
    assert "ParameterViolation" in capsys.readouterr().err
    assert not (tmp_path / "d.json").exists()


def test_design_and_pit_commands(tmp_path, capsys):
    design = str(tmp_path / "design.json")
    assert main(["design", "-n", "4", "-m", "3", "-o", design]) == 0
    table = str(tmp_path / "hard.table")
    with open(table, "w") as fh:
        fh.write("field prime 1000003\nm 3\n")
        for mask in range(8):
            fh.write(f"{mask} {mask + 1}\n")
    circ = _write(tmp_path, "c.circ",
                  "field prime 1000003\nnvars 4\ng1 = input x1\ng2 = input x2\n"
                  "g3 = mul g1 g2\noutput g3\n")
    capsys.readouterr()
    rc = main(["pit", "--mode", "hitset", circ, "--hard", table, "--design", design,
               "-D", "2", "-d", "3", "--limit", "200"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "nonzero"
    rc = main(["pit", "--mode", "exhaustive", circ, "-d", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "nonzero" and report["exhausted"]


def test_hitset_command_writes_points(tmp_path):
    design = str(tmp_path / "design.json")
    main(["design", "-n", "4", "-m", "3", "-o", design])
    table = str(tmp_path / "hard.table")
    with open(table, "w") as fh:
        fh.write("field prime 1000003\nm 3\n0 5\n7 3\n")
    points = str(tmp_path / "points.txt")
    rc = main(["hitset", "--hard", table, "--design", design, "-D", "2", "-d", "3",
               "--limit", "10", "-o", points])
    assert rc == 0
    lines = (tmp_path / "points.txt").read_text().strip().splitlines()
    assert len(lines) == 10
    assert lines[0] == "5,5,5,5"  # first point is the all-f(0) point


def test_hitset_over_the_point_budget_exits_3_before_writing(tmp_path, capsys):
    # nw_design(4, 3) with |T| = 7 has 7^9 points; the limit asks for one
    # more than EXHAUSTIVE_POINT_BUDGET
    design = str(tmp_path / "design.json")
    assert main(["design", "-n", "4", "-m", "3", "-o", design]) == 0
    table = _write(tmp_path, "hard.table", "field prime 1000003\nm 3\n0 5\n7 3\n")
    points = tmp_path / "points.txt"
    capsys.readouterr()
    start = time.perf_counter()
    rc = main(["hitset", "--hard", table, "--design", design, "-D", "2", "-d", "3",
               "--limit", "2000001", "-o", str(points)])
    assert rc == 3 and time.perf_counter() - start < 5
    out, err = capsys.readouterr()
    assert "2000001 hitting points" in err and out == "" and not points.exists()


def test_headerless_table_is_a_usage_error(tmp_path, capsys):
    design = str(tmp_path / "design.json")
    assert main(["design", "-n", "4", "-m", "3", "-o", design]) == 0
    table = _write(tmp_path, "hard.table", "0 5\n7 3\n")
    circ = _write(tmp_path, "c.circ",
                  "field prime 1000003\nnvars 4\ng1 = input x1\noutput g1\n")
    capsys.readouterr()
    for argv in (["hitset", "--hard", table, "--design", design, "-D", "2", "-d", "3"],
                 ["pit", "--mode", "hitset", circ, "--hard", table, "--design", design,
                  "-D", "2", "-d", "3"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "CircuitSyntaxError: line 1" in err and "Traceback" not in err


def test_vnp_sum_command(tmp_path, capsys):
    esum = _write(tmp_path, "e.esum",
                  "aux y2\nfield rationals\nnvars 2\ng1 = input x1\ng2 = input x2\n"
                  "g3 = mul g1 g2\noutput g3\n")
    assert main(["vnp-sum", esum, "--expand"]) == 0
    body = capsys.readouterr().out
    assert "1 : 1" in body
    assert main(["vnp-sum", esum, "--eval", "4"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_vnp_sum_eval_names_the_x_arity(tmp_path, capsys):
    # x1, x2 and one auxiliary y3: a point has 2 coordinates, not 3
    esum = _write(tmp_path, "e.esum",
                  "aux y3\nfield rationals\nnvars 3\ng1 = input x1\ng2 = input x2\n"
                  "g3 = input x3\ng4 = mul g1 g2 g3\noutput g4\n")
    assert main(["vnp-sum", esum, "--eval", "1"]) == 2
    assert "every point needs 2 coordinates" in capsys.readouterr().err
    assert main(["vnp-sum", esum, "--eval", "2,5"]) == 0
    assert capsys.readouterr().out.strip() == "10"


ESUM_BODY = "field rationals\nnvars 2\ng1 = input x1\ng2 = input x2\ng3 = mul g1 g2\noutput g3\n"


@pytest.mark.parametrize("text, line, why", [
    ("aux yq\n" + ESUM_BODY, 1, "'yq'"),
    ("aux x2\n" + ESUM_BODY, 1, "'x2'"),
    ("aux y0\n" + ESUM_BODY, 1, "'y0'"),
    ("aux y2\n" + ESUM_BODY + "aux y1\n", 8, "duplicate aux line"),
    ("aux y2\n" + ESUM_BODY.replace("mul g1 g2", "bogus x2"), 6, "bogus"),
], ids=["not-a-number", "x-not-y", "y0", "second-aux-line", "line-below-aux"])
def test_esum_header_errors_name_the_file_line(tmp_path, capsys, text, line, why):
    # aux tokens are y<k> with k >= 1, at most one aux line, and errors
    # below the aux line cite the line number the file has
    esum = _write(tmp_path, "e.esum", text)
    assert main(["vnp-sum", esum, "--expand"]) == 2
    err = capsys.readouterr().err
    assert f"CircuitSyntaxError: line {line}: " in err and why in err


def test_coeffs_refuses_a_negative_degree_bound(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT)
    assert main(["coeffs", "-y", "3", "-d", "-1", path, "-o", str(tmp_path / "out"),
                 "--cert", str(tmp_path / "cert.json")]) == 2
    assert "ParameterViolation" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["p.circ"]


def test_coeffs_refuses_a_bound_below_the_y_degree(tmp_path, capsys):
    # x1 + x2^2 with y = x2: two nodes would read back x1 + y
    path = _write(tmp_path, "q.circ", "field rationals\nnvars 2\ng1 = input x1\n"
                  "g2 = input x2\ng3 = mul g2 g2\ng4 = add g1 g3\noutput g4\n")
    assert main(["coeffs", "-y", "2", "-d", "1", path, "-o", str(tmp_path / "out")]) == 2
    assert "ParameterViolation" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["q.circ"]


def test_deriv_and_genset_refuse_a_y_degree_above_the_budget(tmp_path, capsys):
    # x1 + x2^64 by six squarings: with y = x2 the interpolations take 65
    # copies, which a degree budget of 32 refuses before any is built
    squares = "".join(f"g{i + 1} = mul g{i} g{i}\n" for i in range(2, 8))
    path = _write(tmp_path, "p.circ", "field prime 1000003\nnvars 2\ng1 = input x1\n"
                  f"g2 = input x2\n{squares}g9 = add g1 g8\noutput g9\n")
    out = str(tmp_path / "out")
    for argv in (["deriv", "-y", "2", "-j", "1", path, "-o", out],
                 ["genset", "--alpha", "0", "-d", "1", "-y", "2", path, "-o", out]):
        assert main(["--budget-degree", "32"] + argv) == 3, argv
        assert "budget exceeded (degree)" in capsys.readouterr().err, argv
        assert [f.name for f in tmp_path.iterdir()] == ["p.circ"], argv
        assert main(argv) == 0, argv
        for f in tmp_path.glob("out*"):
            f.unlink()


def test_vnp_factor_command(tmp_path, capsys):
    esum = _write(tmp_path, "e.esum",
                  "aux y3\nfield rationals\nnvars 3\ng1 = input x1\ng2 = input x2\n"
                  "g3 = input x3\ng4 = const -1\ng5 = mul g4 g1\ng6 = add g2 g5\n"
                  "g7 = const -2\ng8 = add g2 g7\ng9 = mul g6 g8 g3\noutput g9\n")
    out = str(tmp_path / "factor.esum")
    cert = str(tmp_path / "cert.json")
    rc = main(["vnp-factor", "-d", "1", esum, "-o", out, "--cert", cert])
    assert rc == 0
    assert main(["verify", cert]) == 0


# (x2 - x1)(x2 - 2) a1 a2 + (a1 - a2)(a1 + a2) x1, whose second term sums to 0
# over the cube: once with the auxiliaries y1 and y3 among the x-variables
# (the aux line unsorted), once renamed x-variables first, auxiliaries trailing
LEADING_AUX = ("aux y3 y1\nfield rationals\nnvars 4\ng1 = input x1\ng2 = input x2\n"
               "g3 = input x3\ng4 = input x4\ng5 = const -1\ng6 = mul g5 g2\n"
               "g7 = add g4 g6\ng8 = const -2\ng9 = add g4 g8\ng10 = mul g7 g9 g1 g3\n"
               "g11 = mul g5 g3\ng12 = add g1 g11\ng13 = add g1 g3\ng14 = mul g12 g13 g2\n"
               "g15 = add g10 g14\noutput g15\n")
TRAILING_AUX = ("aux y3 y4\nfield rationals\nnvars 4\ng1 = input x1\ng2 = input x2\n"
                "g3 = input x3\ng4 = input x4\ng5 = const -1\ng6 = mul g5 g1\n"
                "g7 = add g2 g6\ng8 = const -2\ng9 = add g2 g8\ng10 = mul g7 g9 g3 g4\n"
                "g11 = mul g5 g4\ng12 = add g3 g11\ng13 = add g3 g4\ng14 = mul g12 g13 g1\n"
                "g15 = add g10 g14\noutput g15\n")


@pytest.mark.parametrize("argv", [["vnp-sum", "--expand"], ["vnp-factor", "-d", "1"]],
                         ids=["vnp-sum", "vnp-factor"])
def test_esum_auxiliaries_anywhere_match_their_trailing_twin(tmp_path, argv):
    # the constructor renames the auxiliaries to trail, x-variables in their order
    outputs = []
    for name, text in (("lead", LEADING_AUX), ("trail", TRAILING_AUX)):
        out = tmp_path / f"{name}.out"
        assert main(argv + [_write(tmp_path, f"{name}.esum", text), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    if argv[0] == "vnp-sum":
        assert outputs[0].decode().count(" : ") == 4  # (x2 - x1)(x2 - 2): four terms


def test_sz_mode_residual_certificate(tmp_path):
    # a terms budget too small for the dense residual check falls back to
    # seeded Schwartz-Zippel points; verify still passes, mode noted
    text = """field rationals
nvars 3
g1 = input x1
g2 = input x2
g3 = input x3
g4 = const 1
g5 = mul g1 g2
g6 = mul g2 g2
g7 = mul g1 g6
g8 = add g4 g1 g5 g6 g7
g9 = const -1
g10 = mul g9 g8
g11 = add g3 g10
g12 = const -3
g13 = add g3 g12
g14 = mul g11 g13
output g14
"""  # (y - (1 + x1 + x1 x2 + x2^2 + x1 x2^2)) (y - 3)
    src = _write(tmp_path, "p.circ", text)
    root = str(tmp_path / "root.circ")
    cert = str(tmp_path / "cert.json")
    rc = main(["--budget-terms", "4", "lift-root", "-y", "3", "-d", "3",
               src, "-o", root, "--cert", cert])
    assert rc == 0
    data = json.loads((tmp_path / "cert.json").read_text())
    assert data["data"]["residual_mode"] == "sz"
    assert main(["verify", cert]) == 0


def test_usage_error_exit_code(tmp_path):
    bad = _write(tmp_path, "bad.circ", "field rationals\nnvars 1\ng1 = add g0 g0\noutput g1\n")
    assert main(["metrics", bad]) == 2


def test_budget_exit_code(tmp_path):
    text = ["field rationals", "nvars 1", "g0 = input x1"]
    prev = "g0"
    for i in range(1, 8):
        text.append(f"g{i} = mul g{i-1} g{i-1}")
    text.append(f"output g7")
    src = _write(tmp_path, "big.circ", "\n".join(text) + "\n")
    assert main(["--budget-degree", "16", "expand", src]) == 3


def test_bad_point_is_a_usage_error(tmp_path, capsys):
    qq = _write(tmp_path, "p.circ", LIFT_INPUT)
    fp = _write(tmp_path, "q.circ", "field prime 101\nnvars 2\ng1 = input x1\noutput g1\n")
    for path, point in ((qq, "1/0,2"), (qq, "1,x,3"), (fp, "1/0,2")):
        assert main(["eval", path, "--point", point]) == 2
        assert "ParameterViolation" in capsys.readouterr().err


def test_malformed_certificate_is_a_usage_error(tmp_path, capsys):
    cases = (
        ({"command": "homog"}, "'params'"),
        ({"command": "homog", "params": {}, "inputs": {}, "outputs": {}}, "'in'"),
        ({"command": "homog", "params": {}, "inputs": {"in": {"sha256": "0"}}, "outputs": {}},
         "'path'"),
        ([], "'command'"),
    )
    for body, key in cases:
        cert = _write(tmp_path, "cert.json", json.dumps(body))
        assert main(["verify", cert]) == 2
        err = capsys.readouterr().err
        assert "BadCertificate" in err and key in err


def test_oversized_exhaustive_pit_is_a_budget_error(tmp_path, capsys):
    lines = ["field prime 1000003", "nvars 8"]
    lines += [f"g{i} = input x{i}" for i in range(1, 9)]
    lines += ["g9 = mul " + " ".join(f"g{i}" for i in range(1, 9)), "output g9"]
    circ = _write(tmp_path, "q.circ", "\n".join(lines) + "\n")
    assert main(["pit", "--mode", "exhaustive", circ, "-d", "1000"]) == 3
    assert "budget exceeded (points)" in capsys.readouterr().err


def test_seed_env_fallback(tmp_path, monkeypatch):
    src = _write(tmp_path, "p.circ", LIFT_INPUT)
    monkeypatch.setenv("FORGE_SEED", "42")
    cert = str(tmp_path / "cert.json")
    assert main(["lift-root", "-y", "3", "-d", "2", src,
                 "-o", str(tmp_path / "r.circ"), "--cert", cert]) == 0
    assert json.loads((tmp_path / "cert.json").read_text())["params"]["seed"] == 42


def _forge_error_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _forge_error_classes(sub)


# the forge exit code of every concrete error class: 1 a claim did not
# verify, 2 bad input, 3 over budget, 4 a bug
EXIT_CODES = {
    "ResidualNonzero": 1, "NoRationalRoot": 1, "NoFactorFound": 1, "NoSimpleRoots": 1,
    "NotASimpleRoot": 1, "SearchExhausted": 1,
    "ZeroPolynomial": 1, "ZeroDivisor": 1, "PreconditionFailed": 1,
    "MissingArtifact": 1, "HashMismatch": 1,
    "CircuitSyntaxError": 2, "DanglingReference": 2, "CyclicReference": 2,
    "ArityMismatch": 2, "MixedFieldConfig": 2, "ParameterViolation": 2,
    "BoundExceedsField": 2, "FieldTooSmall": 2, "BadCertificate": 2, "DivisionByZero": 2,
    "CharacteristicDividesPower": 2, "ShapeError": 2, "NotAFormula": 2,
    "BudgetExceeded": 3,
    "InvariantViolated": 4,
}


def test_every_forge_error_maps_to_one_exit_code(tmp_path, monkeypatch, capsys):
    from circuitforge import cli, errors

    bases = (errors.VerificationFailure, errors.UsageError, errors.BudgetExceeded,
             errors.InvariantViolated)
    path = _write(tmp_path, "p.circ", LIFT_INPUT)
    concrete = [cls for cls in _forge_error_classes(errors.ForgeError)
                if cls not in (errors.VerificationFailure, errors.UsageError)]
    assert sorted(cls.__name__ for cls in concrete) == sorted(EXIT_CODES)
    for cls in concrete:
        assert sum(issubclass(cls, base) for base in bases) == 1, cls.__name__
        assert cls.exit_code == EXIT_CODES[cls.__name__], cls.__name__
        exc = cls.__new__(cls)
        Exception.__init__(exc, "probe")

        def boom(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_dispatch", boom)
        assert main(["metrics", path]) == cls.exit_code, cls.__name__
        want = "error: probe" if cls is errors.BudgetExceeded else f"error: {cls.__name__}: probe"
        assert capsys.readouterr().err == want + "\n", cls.__name__


def test_composite_modulus_in_a_file_is_a_usage_error(tmp_path, capsys):
    body = "nvars 2\ng1 = input x1\ng2 = input x2\ng3 = mul g1 g2\noutput g3\n"
    for p, argv in ((15, ["expand"]), (9, ["lift-root", "-y", "2", "-d", "1"]),
                    (9, ["factor", "-y", "2", "-d", "1"])):
        path = _write(tmp_path, "c.circ", f"# composite\nfield prime {p}\n" + body)
        assert main(argv + [path]) == 2
        err = capsys.readouterr().err
        assert "CircuitSyntaxError" in err and "line 2" in err and f"{p} is not prime" in err
        assert "Traceback" not in err


def test_composite_session_modulus_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT)
    for p in (15, 1_000_001, 4_611_686_018_427_387_849):
        assert main(["--field", f"prime:{p}", "eval", path, "--point", "1,2,3"]) == 2
        err = capsys.readouterr().err
        assert "ParameterViolation" in err and "Traceback" not in err


def test_huge_variable_count_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT.replace("nvars 3", "nvars 99999999999"))
    assert main(["metrics", path]) == 2
    err = capsys.readouterr().err
    assert "CircuitSyntaxError: line 2" in err and "above the limit" in err


def test_homog_negative_k_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT)
    assert main(["homog", "-k", "-1", path]) == 2
    err = capsys.readouterr().err
    assert "ParameterViolation" in err and "Traceback" not in err


def test_out_of_range_y_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT)  # 3 variables
    for y in ("0", "4"):
        for argv in (["factor", "-y", y, "-d", "2"],
                     ["monic", "-r", "2", "-y", y],
                     ["lift-root", "-y", y, "-d", "2"],
                     ["deriv", "-y", y, "-j", "1"],
                     ["genset", "--alpha", "3", "-d", "2", "-y", y]):
            assert main(argv + [path]) == 2, argv
            err = capsys.readouterr().err
            assert "ArityMismatch" in err and "Traceback" not in err, argv


HUGE = "99999999999"


def test_degree_above_the_budget_is_refused_before_the_work(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT)
    esum = _write(tmp_path, "e.esum", FUZZ_ESUM)
    # x1 squared 30 times: formal degree 2^30
    squares = "".join(f"g{i + 1} = mul g{i} g{i}\n" for i in range(1, 31))
    tower = _write(tmp_path, "t.circ",
                   f"field rationals\nnvars 1\ng1 = input x1\n{squares}output g31\n")
    out = str(tmp_path / "out")
    for argv in (["lift-root", "-y", "3", "-d", HUGE, path],
                 ["factor", "-y", "3", "-d", HUGE, path],
                 ["genset", "--alpha", "3", "-d", HUGE, "-y", "3", path, "-o", out],
                 ["vnp-factor", "-d", HUGE, esum],
                 ["coeffs", "-y", "3", "-d", HUGE, path, "-o", out],
                 ["homog", "-k", "1000000", tower]):
        start = time.perf_counter()
        assert main(argv) == 3, argv
        assert time.perf_counter() - start < 5, argv
        err = capsys.readouterr().err
        assert "budget exceeded (degree)" in err and "Traceback" not in err, argv


def test_homog_above_the_formal_degree_is_zero(tmp_path, capsys):
    path = _write(tmp_path, "p.circ", LIFT_INPUT)
    assert main(["homog", "-k", HUGE, path]) == 0
    assert capsys.readouterr().out == "field rationals\nnvars 3\ng0 = const 0\noutput g0\n"


def test_coeffs_files_hold_only_their_own_gates(tmp_path, capsys):
    # x1 * x2^2 + x1 with y = x2: the coefficients are x1, 0 and x1
    text = ("field rationals\nnvars 2\ng1 = input x1\ng2 = input x2\n"
            "g3 = mul g1 g2 g2\ng4 = add g3 g1\noutput g4\n")
    path = _write(tmp_path, "q.circ", text)
    assert main(["coeffs", "-y", "2", "-d", "2", path, "-o", str(tmp_path / "out")]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    x1 = DensePoly.variable(Rationals(), 2, 0)
    want = [x1, DensePoly.zero(Rationals(), 2), x1]
    for j, coeff in enumerate(want):
        body = (tmp_path / f"out.{j}.circ").read_text()
        assert len(re.findall(r"^g\d+ = ", body, re.M)) == metrics[j]["gates"], j
        assert expand(parse_circuit(body)) == coeff, j
    assert metrics[0]["gates"] == 1


def test_coeffs_writes_a_zero_coefficient_as_the_constant_0(tmp_path, capsys):
    # x1 * x2^2 + x1 with y = x2: interpolation leaves the x2 coefficient as
    # gates that cancel; an expansion within the budget finds it is 0
    text = ("field rationals\nnvars 2\ng1 = input x1\ng2 = input x2\n"
            "g3 = mul g1 g2 g2\ng4 = add g3 g1\noutput g4\n")
    path = _write(tmp_path, "q.circ", text)
    assert main(["coeffs", "-y", "2", "-d", "2", path, "-o", str(tmp_path / "out")]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    zero = "field rationals\nnvars 2\ng0 = const 0\noutput g0\n"
    assert (tmp_path / "out.1.circ").read_text() == zero
    assert metrics[1] == {"size": 0, "gates": 1, "depth": 0, "formal_degree": 0}
    # (x1 + x3) * x2^2 + x1 + x3: an expansion of its x2 coefficient over
    # the budget leaves the coefficient as it is
    text = ("field rationals\nnvars 3\ng1 = input x1\ng2 = input x2\ng3 = input x3\n"
            "g4 = add g1 g3\ng5 = mul g4 g2 g2\ng6 = add g5 g4\noutput g6\n")
    path = _write(tmp_path, "q3.circ", text)
    assert main(["--budget-terms", "1", "coeffs", "-y", "2", "-d", "2", path,
                 "-o", str(tmp_path / "big")]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    body = (tmp_path / "big.1.circ").read_text()
    assert metrics[1]["gates"] > 1 and expand(parse_circuit(body)).is_zero()


def test_verify_refuses_a_certificate_degree_above_the_budget(tmp_path, capsys):
    src = _write(tmp_path, "p.circ", LIFT_INPUT)
    cert = tmp_path / "cert.json"
    assert main(["factor", "-y", "3", "-d", "1", src, "-o", str(tmp_path / "f.circ"),
                 "--cert", str(cert)]) == 0
    body = json.loads(cert.read_text())
    body["params"]["d"] = int(HUGE)
    cert.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 3
    assert "budget exceeded (degree)" in capsys.readouterr().err


def test_verify_refuses_params_of_the_wrong_type(tmp_path, capsys):
    src = _write(tmp_path, "p.circ", LIFT_INPUT)
    pit = _write(tmp_path, "c.circ", "field prime 101\nnvars 1\ng1 = input x1\noutput g1\n")
    lift, sz = tmp_path / "lift.json", tmp_path / "sz.json"
    assert main(["lift-root", "-y", "3", "-d", "2", src, "-o", str(tmp_path / "r.circ"),
                 "--cert", str(lift)]) == 0
    assert main(["pit", "--mode", "sz", pit, "-d", "1", "--cert", str(sz)]) == 0
    for cert, key, value in ((lift, "alpha", 3), (lift, "d", "2"), (lift, "y", None),
                             (lift, "seed", True), (sz, "mode", "bogus"), (sz, "D", "2")):
        body = json.loads(cert.read_text())
        body["params"][key] = value
        edited = _write(tmp_path, "edited.json", json.dumps(body))
        capsys.readouterr()
        assert main(["verify", edited]) == 2, key
        err = capsys.readouterr().err
        assert f"BadCertificate: certificate params: {key!r}" in err and "Traceback" not in err


def test_every_certified_command_verifies(tmp_path, monkeypatch):
    """The params type check passes every certificate the commands write."""
    from test_cli_golden import FILES, INVOCATIONS

    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        _write(tmp_path, name, text)
    for k, (name, argv) in enumerate(INVOCATIONS.items()):
        cert = f"cert{k}.json"
        with redirect_stdout(io.StringIO()):
            assert main(argv + ["--cert", cert]) == 0, name
            assert main(["verify", cert]) == 0, name


def test_field_guard_reads_exp_sum_inputs(tmp_path, capsys):
    esum = _write(tmp_path, "e.esum", FUZZ_ESUM)
    assert main(["--field", "rationals", "vnp-factor", "-d", "1", esum]) == 0
    capsys.readouterr()
    assert main(["--field", "prime:1000003", "vnp-sum", "--expand", esum]) == 2
    err = capsys.readouterr().err
    assert "MixedFieldConfig" in err and "Traceback" not in err


def test_bad_inputs_end_in_their_documented_code(tmp_path, capsys):
    """Inputs that once ended in a Python traceback with exit 1, which reads
    like a failed verification."""
    for name, text in (("p.circ", LIFT_INPUT), ("hard.table", FUZZ_TABLE),
                       ("xy.circ", "field prime 101\nnvars 2\ng1 = input x1\ng2 = input x2\n"
                                   "g3 = mul g1 g2\noutput g3\n"),
                       ("c.circ", "field prime 1000003\nnvars 4\ng1 = input x1\noutput g1\n"),
                       ("two.circ", "field rationals\nnvars 2\ng1 = input x1\ng2 = input x2\n"
                                    "output g1\noutput g2\n"),
                       ("f91.circ", "field prime 91\nnvars 1\ng1 = input x1\noutput g1\n"),
                       ("fc.circ", "field complex\nnvars 1\ng1 = input x1\noutput g1\n"),
                       # (y - x1 x2 x3)(y - 2) with y = x4
                       ("cubic.circ", "field rationals\nnvars 4\ng1 = input x1\ng2 = input x2\n"
                                      "g3 = input x3\ng4 = input x4\ng5 = mul g1 g2 g3\n"
                                      "g6 = const -1\ng7 = mul g6 g5\ng8 = add g4 g7\n"
                                      "g9 = const -2\ng10 = add g4 g9\ng11 = mul g8 g10\n"
                                      "output g11\n"),
                       ("notobj.json", "[1, 2]\n"), ("nokey.json", '{"n": 4, "m": 3}\n')):
        _write(tmp_path, name, text)
    p, xy, c, two, f91, fc, cubic = (str(tmp_path / n) for n in (
        "p.circ", "xy.circ", "c.circ", "two.circ", "f91.circ", "fc.circ", "cubic.circ"))
    design = str(tmp_path / "design.json")
    assert main(["design", "-n", "4", "-m", "3", "-o", design]) == 0
    outside = json.loads((tmp_path / "design.json").read_text())
    outside["sets"][2] = [0, 3, 99]
    _write(tmp_path, "outside.json", json.dumps(outside))
    table = str(tmp_path / "hard.table")
    hitset = ["hitset", "--hard", table, "-D", "2", "-d", "3", "--design"]
    pit = ["pit", "--mode", "hitset", c, "--hard", table, "--design", design]
    cases = (
        (["genset", "--alpha", "1/0", "-d", "2", "-y", "3", p], 2, "ParameterViolation: --alpha"),
        (["lift-root", "--alpha", "1/0", "-d", "2", "-y", "3", p], 2, "ParameterViolation"),
        (pit + ["-d", "3"], 2, "needs -D"),
        (pit + ["-D", "2"], 2, "needs -d"),
        (["monic", "-r", "-1", "-y", "3", p], 2, "ParameterViolation"),
        (["monic", "-r", "65", "-y", "3", p], 3, "budget exceeded (degree) r = 65 > 64"),
        (hitset + [str(tmp_path / "outside.json")], 2, "leaves the universe"),
        (hitset + [str(tmp_path / "notobj.json")], 2, "ParameterViolation"),
        (hitset + [str(tmp_path / "nokey.json")], 2, "ParameterViolation"),
        (["hitset", "--hard", table, "--design", design, "-D", "-5", "-d", "2"], 2, "D >= 1"),
        (["hitset", "--hard", table, "--design", design, "-D", "2", "-d", "-1"], 2, "d >= 0"),
        (hitset + [design, "--limit", "-1"], 2, "limit must be >= 0"),
        (["pit", "--mode", "exhaustive", xy, "-d", "-1"], 2, "formal degree 1"),
        (["pit", "--mode", "exhaustive", xy, "-d", "0"], 2, "formal degree 1"),
        (["pit", "--mode", "sz", xy, "-d", "2", "--trials", "0"], 2, "trials >= 1"),
        (["pit", "--mode", "sz", xy, "-d", "2", "--trials", "-5"], 2, "trials >= 1"),
        # a grid of 102 values repeats points of F_101; more than
        # EXHAUSTIVE_POINT_BUDGET points are refused before the first
        (["pit", "--mode", "exhaustive", xy, "-d", "101"], 2,
         "FieldTooSmall: grid 102 exceeds field size 101"),
        (["pit", "--mode", "sz", xy, "-d", "101"], 2, "FieldTooSmall"),
        (["pit", "--mode", "sz", xy, "-d", "2", "--trials", "2000001"], 3,
         "budget exceeded (points) 2000001 random points > 2000000"),
        (pit + ["-D", "2", "-d", "3", "--limit", "0"], 2,
         "ParameterViolation: limit must be >= 1, got 0"),
        (pit + ["-D", "2", "-d", "3", "--limit", "2000001"], 3,
         "budget exceeded (points) 2000001 hitting points > 2000000"),
        (["--budget-terms", "0", "expand", p], 2, "ParameterViolation: budget bounds"),
        (["--field", "bogus", "expand", p], 2, "ParameterViolation: bad --field 'bogus'"),
        (["--field", "prime:abc", "expand", p], 2, "ParameterViolation: bad --field 'prime:abc'"),
        (["--field", "prime:2", "expand", p], 2, "ParameterViolation: modulus must be an odd"),
        (["--field", "rationals", "metrics", c], 2, "MixedFieldConfig"),
        (["homog", "-k", "1", two], 2, "ArityMismatch: operation requires a single-output"),
        (["lift-root", "-y", "2", "-d", "1", two], 2, "ArityMismatch"),
        (["homog", "-k", "1", f91], 2, "CircuitSyntaxError: line 1: bad field line (modulus 91"),
        (["homog", "-k", "1", fc], 2, "CircuitSyntaxError: line 1: bad field line (use"),
        # P expands in 4 terms, but after the monic shear and the separating
        # shift the generator set's capped zero test does not fit in 6 (with
        # 8 it factors), so the root's dense form is over budget too
        (["--budget-terms", "6", "factor", "-y", "4", "-d", "3", cubic], 3, "generator members"),
    )
    capsys.readouterr()
    for argv, code, text in cases:
        start = time.perf_counter()
        assert main(argv) == code, argv
        assert time.perf_counter() - start < 5, argv
        out, err = capsys.readouterr()
        assert text in err and "Traceback" not in err, (argv, err)
        assert '"status": "zero"' not in out, argv


def test_hitset_over_a_huge_grid_streams_its_first_points(tmp_path, capsys):
    design = str(tmp_path / "design.json")
    assert main(["design", "-n", "4", "-m", "3", "-o", design]) == 0
    table = _write(tmp_path, "hard.table", FUZZ_TABLE.replace("1000003", "4611686018427387847"))
    start = time.perf_counter()
    assert main(["hitset", "--hard", table, "--design", design, "-D", "1000000",
                 "-d", "1000000", "--limit", "3"]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.splitlines()[-3:] == ["1,1,1,1"] * 3


# -- bounded fuzzing: mutated input files through the in-process CLI ---------------

FUZZ_ESUM = """aux y3
field rationals
nvars 3
g1 = input x1
g2 = input x2
g3 = input x3
g4 = const -1
g5 = mul g4 g1
g6 = add g2 g5
g7 = const -2
g8 = add g2 g7
g9 = mul g6 g8 g3
output g9
"""  # (x2 - x1)(x2 - 2) * y3 with one auxiliary
FUZZ_POLY = """field rationals
nvars 3
2 0 0 : -1
0 1 1 : 1/2
0 0 2 : 1
"""
FUZZ_TABLE = """field prime 1000003
m 3
0 1
1 2
5 6
7 8
"""
FUZZ_TOKENS = ("g0", "g99", "x0", "x9", "y1", "0", "-1", "1/0", "3/2", "99999999999",
               "input", "const", "add", "mul", "output", "nvars", "field", "prime",
               "rationals", "aux", ":", "=", "", '"', "{", "}", "null", "[]")
FUZZ_COMMANDS = (  # argv before the input path, and the kind of file it reads
    (["metrics"], "circ"),
    (["expand"], "circ"),
    (["homog", "-k", "2"], "circ"),
    (["genset", "--alpha", "3", "-d", "2", "-y", "3"], "circ"),
    (["lift-root", "-y", "3", "-d", "2"], "circ"),
    (["factor", "-y", "3", "-d", "2"], "circ"),
    (["vnp-sum", "--expand"], "esum"),
    (["vnp-factor", "-d", "1"], "esum"),
    (["verify"], "cert"),
    # the mutated file is the last option's value
    (["hitset", "--design", "orig.design", "-D", "2", "-d", "3", "--hard"], "table"),
    (["hitset", "--hard", "orig.table", "-D", "2", "-d", "3", "--design"], "design"),
)
FUZZ_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])


def _word_class(word):
    """Words of one class can stand in for each other and keep a line
    parseable: gate ids, variable names, numbers, operations."""
    for cls, pattern in (("gate", r"g\d+"), ("var", r"[xy]\d+"), ("num", r"-?\d+(/\d+)?,?"),
                         ("op", r"input|const|add|mul")):
        if re.fullmatch(pattern, word):
            return cls
    return word


@st.composite
def _mutated_lines(draw, text):
    lines = text.splitlines()
    # the fixture's own words keep many mutants parseable, so they get past
    # the parsers into the commands; the extra tokens break them
    tokens = sorted(set(text.split())) + list(FUZZ_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("drop", "copy", "swap", "cut", "insert", "replace")))
        i = draw(st.integers(0, max(0, len(lines) - 1)))
        if not lines:
            lines = [draw(st.sampled_from(FUZZ_TOKENS))]
        elif kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            words = lines[i].split(" ")
            k = draw(st.integers(0, len(words) - 1))
            if kind == "replace":
                same = [t for t in tokens if _word_class(t) == _word_class(words[k])] or tokens
                words[k] = draw(st.sampled_from(same))
            else:
                words.insert(k, draw(st.sampled_from(tokens)))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def test_cli_survives_mutated_inputs(tmp_path, monkeypatch):
    """Every mutated input ends in a documented exit code, never an
    uncaught exception. A command mostly reads mutants of the kind of file
    it expects; the other kinds must fail to parse cleanly."""
    # relative paths keep the certificate's text, and so the drawn
    # mutations, the same from run to run
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "orig.circ", LIFT_INPUT)
    with redirect_stdout(io.StringIO()):
        assert main(["--seed", "5", "lift-root", "-y", "3", "-d", "2", "orig.circ",
                     "-o", "root.circ", "--cert", "orig.cert"]) == 0
        assert main(["design", "-n", "4", "-m", "3", "-o", "orig.design"]) == 0
    _write(tmp_path, "orig.table", FUZZ_TABLE)
    fixtures = {"circ": LIFT_INPUT, "esum": FUZZ_ESUM, "poly": FUZZ_POLY,
                "table": FUZZ_TABLE, "cert": (tmp_path / "orig.cert").read_text(),
                "design": (tmp_path / "orig.design").read_text()}

    @st.composite
    def cases(draw):
        argv, own = draw(st.sampled_from(FUZZ_COMMANDS))
        kind = draw(st.sampled_from([own] * 4 + sorted(fixtures)))
        return argv, kind, draw(_mutated_lines(fixtures[kind]))

    @FUZZ_SETTINGS
    @given(cases())
    def run(case):
        argv, kind, text = case
        _write(tmp_path, f"mutated.{kind}", text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv + [f"mutated.{kind}"])
        # exit 4 is a bug, and a bare ValueError is an untyped failure
        assert rc in (0, 1, 2, 3), (argv, kind, text, rc)
        assert "Traceback" not in err.getvalue()
        assert "error: ValueError" not in err.getvalue(), (argv, kind, text)

    run()
