"""Golden certificates: the sha256 of every whole certificate, `params`
included, that the certified forge commands write.

The invocations run in order in one directory, with relative paths, so a
certificate's bytes depend only on the command, its inputs and the seed.
A change that must keep the command line's behaviour keeps every hash; one
that alters it on purpose re-pins them: `PYTHONPATH=src python
tests/test_cli_golden.py` prints the table to paste over CERT_GOLDEN.
`--dump DIR` writes each invocation's certificate, the files it wrote and
its standard output, and `--compare OLD NEW` lists the invocations whose
bytes moved between two dumps (tests/golden_tools.py).
"""

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from circuitforge.cli import main  # noqa: E402

import golden_tools  # noqa: E402
from test_cli import FUZZ_ESUM, FUZZ_TABLE, LIFT_INPUT  # noqa: E402

FACTOR_INPUT = """field rationals
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
"""  # (y - x1)(y - 1 - x2)(y - 7) with y = x3
PIT_INPUT = "field prime 1000003\nnvars 4\ng1 = input x1\ng2 = input x2\ng3 = mul g1 g2\noutput g3\n"
FILES = {"p.circ": LIFT_INPUT, "f.circ": FACTOR_INPUT, "c.circ": PIT_INPUT,
         "hard.table": FUZZ_TABLE, "e.esum": FUZZ_ESUM}
HITSET = ["--hard", "hard.table", "--design", "design.json", "-D", "2", "-d", "3"]

# name -> argv without --cert; `design` runs before the commands that read
# its output
INVOCATIONS = {
    "homog": ["homog", "-k", "2", "p.circ", "-o", "h.circ"],
    "coeffs": ["coeffs", "-y", "3", "-d", "2", "p.circ", "-o", "co"],
    "coeffs/stdout": ["coeffs", "-y", "3", "-d", "2", "p.circ"],
    "deriv": ["deriv", "-y", "3", "-j", "1", "p.circ", "-o", "dv.circ"],
    "monic": ["monic", "-r", "3", "-y", "3", "p.circ", "-o", "m.circ"],
    "monic/appended-y": ["--seed", "3", "monic", "-r", "3", "p.circ", "-o", "ma.circ"],
    "genset": ["genset", "--alpha", "3", "-d", "2", "-y", "3", "p.circ", "-o", "g"],
    "lift-root": ["--seed", "5", "lift-root", "-y", "3", "-d", "2", "p.circ", "-o", "r.circ"],
    "lift-root/alpha": ["lift-root", "-y", "3", "-d", "2", "--alpha", "3", "p.circ",
                        "-o", "ra.circ"],
    "factor/search": ["factor", "-y", "3", "-d", "2", "f.circ", "-o", "fs.circ"],
    "factor/given": ["factor", "-y", "3", "-d", "2", "--subset", "1,2", "f.circ",
                     "-o", "fg.circ"],
    "design": ["design", "-n", "4", "-m", "3", "-o", "design.json"],
    "hitset": ["hitset", *HITSET, "--limit", "10", "-o", "points.txt"],
    "pit/hitset": ["pit", "--mode", "hitset", "c.circ", *HITSET, "--limit", "200"],
    "pit/sz": ["--seed", "2", "pit", "--mode", "sz", "c.circ", "-d", "2", "--trials", "16"],
    "pit/exhaustive": ["--field", "prime:1000003", "pit", "--mode", "exhaustive", "c.circ",
                       "-d", "2", "-o", "pit.json"],
    "vnp-sum/expand": ["vnp-sum", "e.esum", "--expand", "-o", "sum.poly"],
    "vnp-sum/eval": ["vnp-sum", "e.esum", "--eval", "1,2"],
    "vnp-factor": ["--budget-terms", "100000", "--budget-degree", "32", "vnp-factor", "-d", "1",
                   "e.esum", "-o", "vf.esum"],
}

CERT_GOLDEN = {
    "homog": "2421f9d131efe5ac259f7c1f899cb53faf9092fc813687d103f2415fc09e2a3b",
    "coeffs": "51c5533f8cb8b70b0a24ffcd350e9f0d13aa1e03fcdd698ef9b4bfed863fbdea",
    "coeffs/stdout": "f3889f2c17fea34e97bf14a8d45bad9a5ccfba7aa0c2ea9f831da611f71fae91",
    "deriv": "a4fa82a7b425d2d5e838e550c70a8be5157e0e47739c3173d77e0d3a5c02f51f",
    "monic": "c2ad1ac8ee3ef5a5139d3147007382d984fcf99feefd4d5ac02290ebae4a29d6",
    "monic/appended-y": "8665e7dfd1804af4c2e8cf8b385c171e3611ea4a43ebeca744abfd62e15497e5",
    "genset": "6f16e8176abc3e01fb8d8d3f93548637248dee4cf7fee6bb278d55ad258a105d",
    "lift-root": "b6ec30bb2223ba790f7e40dd97b52b8ae60f1f008a5734c54d5ec1fd8048a3aa",
    "lift-root/alpha": "8ef663036a0e95bc1b28630769bac831ec27a7c6cb296ce5d723d17c00fb4c21",
    "factor/search": "610e03243685254470e386dc552c2e26850d8c8233ea0fd9fa2c49d7d3eaa08f",
    "factor/given": "1ba675912ff1570fb9cd178fdf1a383b6215b0fac6bf3902fcd61c9c5efb7e14",
    "design": "285754c69a9bc4bbc53d0d9919c332ff3c0d45b2eee3ab781634da16a9945113",
    "hitset": "6c5641b0dfa94c8221bcd5432a45b5d142f3322dcba5e37447fafbd683346b69",
    "pit/hitset": "e3e068a3ce99a3aa3f14f4ae3e56e9279832fb08262efaddb6b78ed1b7ae3c3e",
    "pit/sz": "aa5baac456fb896d1d20f0c9abf11a9278a8b46a4ae0c1e02d34816af7aac24e",
    "pit/exhaustive": "d2c3b39fd1a282ea23595fa9cdc2cb22b5571ed5e2e0ea2d3175c361fd85a98c",
    "vnp-sum/expand": "0ba782def21cc97ddc11cd7ac61f1f4c78ac2d34f061f8b86f81f035f0909838",
    "vnp-sum/eval": "d32118d20e7d3590904aa4ade9a565ee2d41dcccce3857b54e90be5b94d7d56c",
    "vnp-factor": "19cdcddcbefe65ac863de85d533c8bc7ff6bd2294422c387df39d30971b6ee0f",
}


def invocation_outputs() -> dict:
    """{name: {file: bytes}} per invocation: its certificate as cert.json,
    every file it wrote or changed, and its standard output as stdout.txt
    when it printed any."""
    got = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text)
            for k, (name, argv) in enumerate(INVOCATIONS.items()):
                before = _files()
                cert, printed = f"cert{k}.json", io.StringIO()
                with redirect_stdout(printed):
                    assert main(argv + ["--cert", cert]) == 0, name
                wrote = {f: body for f, body in _files().items() if before.get(f) != body}
                got[name] = {("cert.json" if f == cert else f): body for f, body in wrote.items()}
                if printed.getvalue():
                    got[name]["stdout.txt"] = printed.getvalue().encode()
        finally:
            os.chdir(cwd)
    return got


def _files() -> dict:
    return {str(p): p.read_bytes() for p in Path(".").rglob("*") if p.is_file()}


def certificate_hashes() -> dict:
    return {name: hashlib.sha256(files["cert.json"]).hexdigest()
            for name, files in invocation_outputs().items()}


def test_certificates_match_golden_hashes():
    got = certificate_hashes()
    changed = sorted(k for k in CERT_GOLDEN if got.get(k) != CERT_GOLDEN[k])
    assert set(got) == set(CERT_GOLDEN)
    assert not changed, f"certificate bytes changed for {changed}"


def _print_table():
    print("CERT_GOLDEN = {")
    for key, value in certificate_hashes().items():
        print(f'    "{key}": "{value}",')
    print("}")


if __name__ == "__main__":
    sys.exit(golden_tools.main(invocation_outputs, _print_table))
