"""forge: the command-line surface.

Every command is deterministic given (inputs, seed): randomness flows from
one session seed through named substreams, certificates carry content
hashes of inputs and outputs and never carry timestamps, and `forge verify`
re-executes the recorded command in a scratch directory and compares the
artifact hashes bit for bit (after checking that the files on disk still
match the certificate).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
exceeded, 4 internal invariant violated (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import errors as E
from .circuit import const_circuit, emit_circuit, formal_degree_in, parse_circuit
from .dense import DEFAULT_BUDGET, ExpansionBudget, emit_poly, expand
from .designs import Design, nw_design
from .expsum import ExpSumPoly, exp_sum_eval, exp_sum_expand, factor_vnp
from .factoring import extract_factor
from .lifting import lift_root
from .pit import ExplicitPoly, HittingSet, pit_hitset, pit_sz
from .transforms import (
    extract_y_coeffs,
    generator_set,
    hasse_derivative_circuit,
    homogenize,
    make_monic,
)

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    if not os.path.exists(path):
        raise E.MissingArtifact(f"missing file {path}")
    with open(path, "rb") as fh:
        return fh.read()


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FORGE_SEED")
    return int(env) if env else 0


def _parse_element(field, token, what):
    try:
        return field.parse(token.strip())
    except (ValueError, E.DivisionByZero):
        raise E.ParameterViolation(f"{what}: bad field element {token.strip()!r}") from None


def _parse_point(field, text):
    return [_parse_element(field, token, f"point coordinate {k}")
            for k, token in enumerate(text.split(","), 1)]


def _parse_esum(text: str) -> ExpSumPoly:
    """A circuit file with at most one `aux y<k> ...` line (k >= 1). The aux
    line is blanked, not removed, so circuit errors cite the file's lines."""
    aux_vars, lines = None, text.splitlines()
    for no, raw in enumerate(lines, 1):
        parts = raw.split("#", 1)[0].split()
        if parts[:1] != ["aux"]:
            continue
        if aux_vars is not None:
            raise E.CircuitSyntaxError(no, "duplicate aux line")
        for token in parts[1:]:
            if not (token[:1] == "y" and token[1:].isdecimal() and int(token[1:]) >= 1):
                raise E.CircuitSyntaxError(no, f"aux names variables y<k>, k >= 1, got {token!r}")
        aux_vars, lines[no - 1] = [int(token[1:]) - 1 for token in parts[1:]], ""
    circ = parse_circuit("\n".join(lines))
    return ExpSumPoly(circ, tuple(aux_vars or ()))


def _emit_esum(e: ExpSumPoly) -> str:
    header = ""
    if e.aux:
        header = "aux " + " ".join(f"y{a + 1}" for a in e.aux) + "\n"
    return header + emit_circuit(e.verifier)


# -- command cores -----------------------------------------------------------------
# Each core maps (params, input bytes by role) to (output bytes by role,
# data for the certificate). Commands and `verify` replay share the cores.

def _check_degree(params, name):
    """Refuse a degree parameter above the degree budget, before any work."""
    if params[name] > params["budget_degree"]:
        raise E.BudgetExceeded("degree", f"{name} = {params[name]} > {params['budget_degree']}")


def _core_homog(params, inputs):
    circ = parse_circuit(inputs["in"].decode())
    if params["k"] <= circ.formal_degree():  # above the formal degree H_k is 0
        _check_degree(params, "k")
    out = homogenize(circ, params["k"])
    return {"out": emit_circuit(out).encode()}, {"metrics": out.metrics()}


def _core_coeffs(params, inputs):
    circ = parse_circuit(inputs["in"].decode())
    _check_degree(params, "dmax")
    budget = ExpansionBudget(params["budget_terms"], params["budget_degree"])
    coeffs = extract_y_coeffs(circ, params["y"], params["dmax"])
    coeffs = [_zero_or_same(c, budget) for c in coeffs]
    outs = {f"coeff{j}": emit_circuit(c).encode() for j, c in enumerate(coeffs)}
    return outs, {"metrics": [c.metrics() for c in coeffs]}


def _zero_or_same(circ, budget):
    """The constant 0 when circ expands to zero within budget, else circ:
    interpolation can leave a zero coefficient as gates that cancel."""
    try:
        if expand(circ, budget).is_zero():
            return const_circuit(circ.field, circ.field.zero, circ.num_vars)
    except E.BudgetExceeded:
        pass
    return circ


def _core_deriv(params, inputs):
    circ = parse_circuit(inputs["in"].decode())
    deg = formal_degree_in(circ, params["y"])  # the interpolation takes deg + 1 copies
    if deg > params["budget_degree"]:
        raise E.BudgetExceeded("degree", f"formal y-degree {deg} > {params['budget_degree']}")
    out = hasse_derivative_circuit(circ, params["y"], params["j"])
    return {"out": emit_circuit(out).encode()}, {"metrics": out.metrics()}


def _core_monic(params, inputs):
    circ = parse_circuit(inputs["in"].decode())
    _check_degree(params, "r")
    form = make_monic(circ, params["r"], params["seed"], y_var=params.get("y"))
    fld = circ.field
    data = {
        "shift": [fld.format(a) for a in form.shift],
        "leading_unit": fld.format(form.leading_unit),
        "y_var": form.y_var + 1,
        "metrics": form.circuit.metrics(),
    }
    return {"out": emit_circuit(form.circuit).encode()}, data


def _core_genset(params, inputs):
    circ = parse_circuit(inputs["in"].decode())
    fld = circ.field
    budget = ExpansionBudget(params["budget_terms"], params["budget_degree"])
    alpha = _parse_element(fld, params["alpha"], "--alpha")
    gens = generator_set(circ, params["y"], alpha, params["d"], budget=budget)
    outs = {f"g{j}": emit_circuit(c).encode() for j, c in gens.members}
    data = {
        "orders": [j for j, _ in gens.members],
        "count": len(gens.members),
        "metrics": [c.metrics() for _, c in gens.members],
    }
    return outs, data


def _core_lift_root(params, inputs):
    circ = parse_circuit(inputs["in"].decode())
    fld = circ.field
    alpha = params.get("alpha")
    if alpha is not None:
        alpha = _parse_element(fld, alpha, "--alpha")
    budget = ExpansionBudget(params["budget_terms"], params["budget_degree"])
    cert = lift_root(circ, params["y"], params["d"], params["seed"], alpha=alpha, budget=budget)
    data = {
        "alpha": fld.format(cert.alpha),
        "delta": fld.format(cert.delta),
        "multiplicity": cert.multiplicity,
        "shift": [fld.format(v) for v in cert.shift],
        "residual_mode": cert.residual_mode,
        "stages": cert.metrics_chain,
    }
    return {"out": emit_circuit(cert.root).encode()}, data


def _core_factor(params, inputs):
    circ = parse_circuit(inputs["in"].decode())
    budget = ExpansionBudget(params["budget_terms"], params["budget_degree"])
    subset = params.get("subset")
    res = extract_factor(
        circ, params["y"], params["d"],
        subset=tuple(subset) if subset else None,
        seed=params["seed"], budget=budget,
    )
    data = {
        "subset": [i + 1 for i in res.subset],
        "multiplicity": res.multiplicity,
        "deriv_level": res.deriv_level,
        "stages": res.metrics_chain,
    }
    return {"out": emit_circuit(res.factor).encode()}, data


def _core_design(params, inputs):
    design = nw_design(params["n"], params["m"])
    return {"out": (design.to_json() + "\n").encode()}, {
        "q": design.q, "dprime": design.dprime, "ell": design.ell,
    }


def _core_hitset(params, inputs):
    table = ExplicitPoly.parse_table(inputs["hard"].decode())
    design = Design.from_json(inputs["design"].decode())
    hs = HittingSet(table, design, params["D"], params["d"])
    fld = table.field
    lines = []
    for point in hs.points(limit=params["limit"]):
        lines.append(",".join(fld.format(v) for v in point))
    body = "\n".join(lines) + "\n"
    data = {"t_size": hs.t_size, "emitted": len(lines), "provenance": hs.provenance()}
    return {"out": body.encode()}, data


def _core_pit(params, inputs):
    circ = parse_circuit(inputs["in"].decode())
    mode = params["mode"]
    if mode == "hitset":
        table = ExplicitPoly.parse_table(inputs["hard"].decode())
        design = Design.from_json(inputs["design"].decode())
        hs = HittingSet(table, design, params["D"], params["d"])
        res = pit_hitset(circ, hs, limit=params["limit"])
    else:
        res = pit_sz(
            circ, params["d"], trials=params["trials"], seed=params["seed"],
            exhaustive=(mode == "exhaustive"),
        )
    fld = circ.field
    data = {
        "status": res.status,
        "witness": [fld.format(v) for v in res.witness] if res.witness else None,
        "points_checked": res.points_checked,
        "exhausted": res.exhausted,
        "mode": res.mode,
    }
    return {"out": (json.dumps(data, sort_keys=True) + "\n").encode()}, data


def _core_vnp_sum(params, inputs):
    esum = _parse_esum(inputs["in"].decode())
    budget = ExpansionBudget(params["budget_terms"], params["budget_degree"])
    fld = esum.field
    if params.get("eval_point") is not None:
        value = exp_sum_eval(esum, _parse_point(fld, params["eval_point"]))
        body = fld.format(value) + "\n"
    else:
        body = emit_poly(exp_sum_expand(esum, budget))
    return {"out": body.encode()}, {"aux_count": esum.m}


def _core_vnp_factor(params, inputs):
    esum = _parse_esum(inputs["in"].decode())
    budget = ExpansionBudget(params["budget_terms"], params["budget_degree"])
    subset = params.get("subset")
    out, fr = factor_vnp(
        esum, params["d"],
        subset=tuple(subset) if subset else None,
        seed=params["seed"], budget=budget,
    )
    data = {
        "aux_count": out.m,
        "subset": [i + 1 for i in fr.subset],
        "multiplicity": fr.multiplicity,
    }
    return {"out": _emit_esum(out).encode()}, data


CORES = {
    "homog": _core_homog,
    "coeffs": _core_coeffs,
    "deriv": _core_deriv,
    "monic": _core_monic,
    "genset": _core_genset,
    "lift-root": _core_lift_root,
    "factor": _core_factor,
    "design": _core_design,
    "hitset": _core_hitset,
    "pit": _core_pit,
    "vnp-sum": _core_vnp_sum,
    "vnp-factor": _core_vnp_factor,
}


def _run_with_cert(command, params, input_paths, output_paths, cert_path):
    inputs = {role: _read(path) for role, path in input_paths.items()}
    outs, data = CORES[command](params, inputs)
    for role, body in outs.items():
        path = output_paths.get(role)
        if path:
            with open(path, "wb") as fh:
                fh.write(body)
    cert = {
        "command": command,
        "params": params,
        "inputs": {
            role: {"path": path, "sha256": _sha256(inputs[role])}
            for role, path in input_paths.items()
        },
        "outputs": {
            role: {"path": output_paths.get(role), "sha256": _sha256(body)}
            for role, body in sorted(outs.items())
        },
        "data": data,
    }
    if cert_path:
        with open(cert_path, "w") as fh:
            json.dump(cert, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return cert, outs


class _CertSection(dict):
    """One section of a certificate; a key it lacks is a BadCertificate."""

    def __init__(self, name: str, items):
        super().__init__(items)
        self.name = name

    def __missing__(self, key):
        raise E.BadCertificate(f"certificate {self.name} lack {key!r}")


def _cert_entry(record, key, kind, where):
    if not isinstance(record, dict) or key not in record:
        raise E.BadCertificate(f"{where} has no {key!r}")
    if not isinstance(record[key], kind):
        raise E.BadCertificate(f"{where}: {key!r} has the wrong type")
    return record[key]


def verify_certificate(cert_path: str) -> dict:
    """Re-check hashes and replay the recorded command deterministically."""
    cert = json.loads(_read(cert_path).decode())
    command = _cert_entry(cert, "command", str, "certificate")
    if command not in CORES:
        raise E.MissingArtifact(f"unknown command {command!r} in certificate")
    params = _CertSection("params", _cert_entry(cert, "params", dict, "certificate"))
    # a recorded parameter must have the JSON type its argument produces from
    # a sample token, and one of its choices; None passes for an optional
    # argument defaulting to None
    for action in _build_parser().get_default("subcommands")[command]._actions:
        value = params.get(action.dest)
        optional = action.default is None and not action.required
        if action.dest not in params or value is None and optional:
            continue
        want = (action.type or str)("1")
        if (type(value) is not type(want) or action.choices and value not in action.choices
                or type(want) is list and any(type(x) is not type(want[0]) for x in value)):
            raise E.BadCertificate(
                f"certificate params: {action.dest!r} = {value!r} is not a value its "
                f"argument produces")
    inputs = _CertSection("inputs", {})
    for role, rec in _cert_entry(cert, "inputs", dict, "certificate").items():
        path = _cert_entry(rec, "path", str, f"input {role!r}")
        body = _read(path)
        if _sha256(body) != _cert_entry(rec, "sha256", str, f"input {role!r}"):
            raise E.HashMismatch(f"input {path} does not match its recorded hash")
        inputs[role] = body
    outputs = _CertSection("outputs", _cert_entry(cert, "outputs", dict, "certificate"))
    for role, rec in outputs.items():
        path = _cert_entry(rec, "path", (str, type(None)), f"output {role!r}")
        want = _cert_entry(rec, "sha256", str, f"output {role!r}")
        if path and _sha256(_read(path)) != want:
            raise E.HashMismatch(f"output {path} does not match its recorded hash")
    outs, _data = CORES[command](params, inputs)
    for role, body in outs.items():
        want = outputs[role]["sha256"]
        if _sha256(body) != want:
            return {"result": "fail", "reason": f"replay of {role} diverged"}
    return {"result": "pass", "command": command, "outputs": sorted(outs)}


# -- argument parsing -----------------------------------------------------------------

def _globals_parser(suppress: bool):
    # the same options are accepted before and after the subcommand; the
    # subcommand copies use SUPPRESS so they never clobber earlier values
    default = argparse.SUPPRESS if suppress else None
    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--seed", type=int, default=default, help="session seed (or FORGE_SEED)")
    g.add_argument("--budget-terms", type=int, default=default)
    g.add_argument("--budget-degree", type=int, default=default)
    g.add_argument(
        "--field",
        default=default,
        help="session field guard: 'rationals' or 'prime:<p>'; input files must "
        "match, and a prime modulus must exceed 2*(budget degree)^2",
    )
    g.add_argument("--json", action="store_true", default=default)
    return g


def one_based_index(text: str) -> int:
    """A 1-based index on the command line, as the 0-based one the cores take."""
    return int(text) - 1


def one_based_indices(text: str) -> list:
    return [one_based_index(token) for token in text.split(",")]


def _build_parser():
    shared = _globals_parser(suppress=True)
    p = argparse.ArgumentParser(
        prog="forge", description=__doc__, parents=[_globals_parser(suppress=False)]
    )
    sub_registry = p.add_subparsers(dest="command", required=True)

    class _Sub:
        def add_parser(self, name, **kw):
            return sub_registry.add_parser(name, parents=[shared], **kw)

    sub = _Sub()

    def certified(sp, *params, inputs=None, fanout=None, output_required=False,
                  parse_input=parse_circuit):
        """Declare a command that writes a certificate. `params` names the
        arguments the certificate records; `inputs` maps each input role to
        the argument holding its path (by default the positional input). A
        `fanout` of (bounding parameter, role, path) makes -o stand for one
        output per order j up to that parameter, its role and path formatted
        with j and out (the -o value). `parse_input` reads the positional
        input's text into an object whose field the --field guard checks."""
        if inputs is None:
            inputs = {"in": "input"}
            sp.add_argument("input")
        sp.add_argument("-o", "--output", required=output_required)
        sp.add_argument("--cert", default=None)
        sp.set_defaults(params=params, inputs=inputs, fanout=fanout, parse_input=parse_input)

    sp = sub.add_parser("eval", help="evaluate a circuit at a point")
    sp.add_argument("input")
    sp.add_argument("--point", required=True)

    sp = sub.add_parser("expand", help="dense-expand a circuit")
    sp.add_argument("input")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("metrics", help="size/depth/formal-degree JSON")
    sp.add_argument("input")

    sp = sub.add_parser("homog", help="homogeneous component H_k")
    sp.add_argument("-k", type=int, required=True)
    certified(sp, "k")

    sp = sub.add_parser("coeffs", help="y-coefficient circuits by interpolation")
    sp.add_argument("-y", type=one_based_index, required=True, help="1-based y variable index")
    sp.add_argument("-d", "--dmax", type=int, required=True)
    certified(sp, "y", "dmax", fanout=("dmax", "coeff{j}", "{out}.{j}.circ"))

    sp = sub.add_parser("deriv", help="Hasse derivative circuit")
    sp.add_argument("-y", type=one_based_index, required=True)
    sp.add_argument("-j", type=int, required=True)
    certified(sp, "y", "j")

    sp = sub.add_parser("monic", help="monic normal form in y")
    sp.add_argument("-r", type=int, required=True, help="exact total degree")
    sp.add_argument("-y", type=one_based_index, default=None,
                    help="1-based y (appended when absent)")
    certified(sp, "r", "y")

    sp = sub.add_parser("genset", help="generator set G_y(P, alpha, d)")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("-y", type=one_based_index, required=True)
    certified(sp, "alpha", "d", "y", fanout=("d", "g{j}", "{out}.g{j}.circ"))

    sp = sub.add_parser("lift-root", help="Hensel-lift a root circuit")
    sp.add_argument("-y", type=one_based_index, required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("--alpha", default=None)
    certified(sp, "y", "d", "alpha")

    sp = sub.add_parser("factor", help="extract a factor circuit")
    sp.add_argument("-y", type=one_based_index, required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("--subset", type=one_based_indices, default=argparse.SUPPRESS,
                    help="1-based root indices, comma separated")
    certified(sp, "y", "d", "subset")

    sp = sub.add_parser("design", help="Nisan-Wigderson design")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)
    certified(sp, "n", "m", inputs={}, output_required=True)

    sp = sub.add_parser("hitset", help="stream hitting-set points")
    sp.add_argument("--hard", required=True)
    sp.add_argument("--design", required=True)
    sp.add_argument("-D", type=int, required=True, help="circuit degree bound")
    sp.add_argument("-d", type=int, required=True, help="hard polynomial degree")
    sp.add_argument("--limit", type=int, default=1024)
    certified(sp, "D", "d", "limit", inputs={"hard": "hard", "design": "design"})

    sp = sub.add_parser("pit", help="polynomial identity test")
    sp.add_argument("--mode", choices=["hitset", "sz", "exhaustive"], required=True)
    sp.add_argument("--hard", default=None)
    sp.add_argument("--design", default=None)
    sp.add_argument("-D", type=int, default=None)
    sp.add_argument("-d", type=int, default=None)
    sp.add_argument("--limit", type=int, default=1024)
    sp.add_argument("--trials", type=int, default=64)
    certified(sp, "mode", "D", "d", "limit", "trials")

    sp = sub.add_parser("vnp-sum", help="expand or evaluate an exponential sum")
    sp.add_argument("--expand", action="store_true")
    sp.add_argument("--eval", dest="eval_point", default=None)
    certified(sp, "eval_point", parse_input=_parse_esum)

    sp = sub.add_parser("vnp-factor", help="factor an exponential sum")
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("--subset", type=one_based_indices, default=argparse.SUPPRESS)
    certified(sp, "d", "subset", parse_input=_parse_esum)

    sp = sub.add_parser("verify", help="re-check a certificate")
    sp.add_argument("cert")
    p.set_defaults(subcommands=sub_registry.choices)
    return p


def _session_field(args):
    if args.field is None:
        return None
    from .fields import PrimeField, Rationals, assert_degree_capacity, is_prime

    if args.field == "rationals":
        return Rationals()
    if args.field.startswith("prime:") and args.field[6:].isdecimal():
        fld = PrimeField(int(args.field[6:]))
        if not is_prime(fld.p):
            raise E.ParameterViolation(f"--field modulus {fld.p} is not prime")
        assert_degree_capacity(fld, args.budget_degree)
        return fld
    raise E.ParameterViolation(f"bad --field {args.field!r} (use 'rationals' or 'prime:<p>')")


def _check_session_field(session, parsed):
    if session is not None and parsed.field != session:
        raise E.MixedFieldConfig(
            f"input field {parsed.field!r} does not match session field {session!r}"
        )
    return parsed


def _dispatch(args) -> int:
    if getattr(args, "json", None) is None:
        args.json = False
    if args.budget_terms is None:
        args.budget_terms = DEFAULT_BUDGET.max_terms
    if args.budget_degree is None:
        args.budget_degree = DEFAULT_BUDGET.max_degree
    seed = _seed(args)
    bt, bd = args.budget_terms, args.budget_degree
    session = _session_field(args)

    if args.command == "eval":
        circ = _check_session_field(session, parse_circuit(_read(args.input).decode()))
        values = circ.evaluate(_parse_point(circ.field, args.point))
        if args.json:
            print(json.dumps([circ.field.format(v) for v in values]))
        else:
            print(" ".join(circ.field.format(v) for v in values))
        return 0
    if args.command == "expand":
        circ = _check_session_field(session, parse_circuit(_read(args.input).decode()))
        body = emit_poly(expand(circ, ExpansionBudget(bt, bd)))
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)
        return 0
    if args.command == "metrics":
        circ = _check_session_field(session, parse_circuit(_read(args.input).decode()))
        print(json.dumps(circ.metrics(), sort_keys=True))
        return 0
    if args.command == "verify":
        report = verify_certificate(args.cert)
        print(json.dumps(report, sort_keys=True))
        return 0 if report["result"] == "pass" else 1

    params = {"seed": seed, "budget_terms": bt, "budget_degree": bd}
    params.update((name, getattr(args, name)) for name in args.params if hasattr(args, name))
    input_paths = {role: getattr(args, name) for role, name in args.inputs.items()}
    if session is not None and "in" in input_paths:
        _check_session_field(session, args.parse_input(_read(args.input).decode()))
    if args.command == "pit":
        if args.mode == "hitset":
            needs = {"--hard": args.hard, "--design": args.design, "-D": args.D, "-d": args.d}
            input_paths.update(hard=args.hard, design=args.design)
        else:
            needs = {"-d": args.d}
        missing = [flag for flag, value in needs.items() if value in (None, "")]
        if missing:
            raise E.ParameterViolation(f"pit --mode {args.mode} needs {', '.join(missing)}")
    output_paths = {}
    if args.output and args.fanout:
        # a bound above the degree budget is refused before any output is written
        bound, role, path = args.fanout
        orders = range(min(params[bound], bd) + 1)
        output_paths = {role.format(j=j): path.format(out=args.output, j=j) for j in orders}
    elif args.output:
        output_paths["out"] = args.output

    cert, outs = _run_with_cert(args.command, params, input_paths, output_paths, args.cert)
    if "out" in outs and "out" not in output_paths:
        sys.stdout.write(outs["out"].decode())
    else:
        print(json.dumps(cert["data"], sort_keys=True, default=str))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (E.ForgeError, ValueError) as exc:
        # Python's own ValueErrors are bad input too (exit 2): a non-JSON
        # certificate, a binary input file, a non-numeric FORGE_SEED
        name = "" if isinstance(exc, E.BudgetExceeded) else f"{type(exc).__name__}: "
        print(f"error: {name}{exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
