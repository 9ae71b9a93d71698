"""Dump and compare the outputs behind the golden hashes.

`tests/test_golden.py` and `tests/test_cli_golden.py` pin sha256 digests of
what the commands write. Each file, run as a script, takes

    --dump DIR          write every output it hashes under DIR, one folder
                        per key (and DIR/keys.json listing them)
    --compare OLD NEW   list each key whose bytes moved between two dumps

For every circuit or exp-sum file of a moved key, the comparison says
whether both sides compute the same polynomial (`expand` per output;
`exp_sum_expand` for an exp-sum with auxiliaries), and gives their wires
and depth; for a JSON file it names the entries that differ. It exits 1
when a key moved, 0 when none did, so comparing a tree's dump with a second
dump of the same tree must report zero moved keys.
"""

import argparse
import json
from pathlib import Path

from circuitforge import Circuit, expand
from circuitforge.cli import _parse_esum
from circuitforge.errors import ForgeError
from circuitforge.expsum import exp_sum_expand


def dump(runs: dict, out_dir) -> None:
    """runs maps each key to {file name: bytes}."""
    root = Path(out_dir)
    for key, files in runs.items():
        for name, body in files.items():
            path = root / key / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(body)
    root.mkdir(parents=True, exist_ok=True)
    (root / "keys.json").write_text(json.dumps({k: sorted(f) for k, f in runs.items()}, indent=1))


def _load(root) -> dict:
    root = Path(root)
    keys = json.loads((root / "keys.json").read_text())
    return {key: {name: (root / key / name).read_bytes() for name in names}
            for key, names in keys.items()}


def _polynomial(body: bytes):
    """(polynomials, wires, depth) of a circuit or exp-sum file, else None."""
    try:
        esum = _parse_esum(body.decode())
    except (ForgeError, UnicodeDecodeError):
        return None
    circ = esum.verifier
    if esum.aux:
        polys = [exp_sum_expand(esum)]
    else:
        polys = [expand(Circuit(circ.field, circ.num_vars, circ.gates, [o])) for o in circ.outputs]
    metrics = circ.metrics()
    return polys, metrics["size"], metrics["depth"]


def _json_paths(a, b, prefix="") -> list:
    """The entries, two levels deep, where the JSON values a and b differ."""
    if not (isinstance(a, dict) and isinstance(b, dict)) or prefix.count(".") >= 1:
        return [prefix or "(whole)"] if a != b else []
    out = []
    for k in sorted(a.keys() | b.keys(), key=str):
        name = f"{prefix}.{k}" if prefix else str(k)
        out += [name] if (k in a) != (k in b) else _json_paths(a[k], b[k], name)
    return out


def _describe(old: bytes | None, new: bytes | None) -> str:
    if old is None or new is None:
        return "only in " + ("new" if old is None else "old")
    try:
        paths = _json_paths(json.loads(old), json.loads(new))
        return "JSON differs at " + ", ".join(paths)
    except ValueError:
        pass
    a, b = _polynomial(old), _polynomial(new)
    if a is None or b is None:
        return "bytes differ (not a circuit)"
    same = "same polynomial" if a[0] == b[0] else "DIFFERENT polynomial"
    return f"{same}, wires {a[1]} -> {b[1]}, depth {a[2]} -> {b[2]}"


def compare(old_dir, new_dir) -> list:
    """One entry per moved key: the key, then a line per file that moved."""
    old, new = _load(old_dir), _load(new_dir)
    moved = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            moved.append(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        lines = [f"  {name}: {_describe(a.get(name), b.get(name))}"
                 for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
        moved.append("\n".join([key, *lines]))
    return moved


def main(runs, print_table) -> int:
    """The script entry of a golden test file: runs() gives the outputs by
    key, print_table() prints the hash tables to paste."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--dump", metavar="DIR")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        moved = compare(*args.compare)
        for entry in moved:
            print(entry)
        print(f"{len(moved)} moved key{'s' * (len(moved) != 1)}")
        return 1 if moved else 0
    if args.dump:
        dump(runs(), args.dump)
        return 0
    print_table()
    return 0
