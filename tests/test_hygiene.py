"""Source hygiene: every import a module makes is used, every
module-level private function is referenced from some module of the
package, and every public one from the package, the tests or the
benchmark, so deletions leave no stranded helpers or imports behind. The
runtime depends on the standard library and numpy only, the count of bare
`raise ValueError` sites can only go down, and every name the benchmark's
tracer looks up still exists, with a traced run still counting the slice
expansions it reads; the span names it reads that src/ no longer defines
are a pinned set. The univariate section of `dense.py` is one
kernel on native numbers: none of its functions calls a Field method, and
neither do the packed expansion kernel and the exact division on its keys,
which pack monomials with one key function, nor the builder's
canonicalizing `add`, `mul` and `import_circuit`, its `finish`, the
reachability sweep and the metrics walk, nor the grid batcher, the table
fold and the identity tests that read them.
Only circuit.py constructs a Circuit or reads its canonical mark. The
README's key documented size and depth constants are the ones the suite
asserts."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "circuitforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
RUNTIME_DEPENDENCIES = {"numpy", "circuitforge"}
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"
OUTSIDE = [ast.parse(p.read_text(), filename=str(p)) for folder in ("tests", "perfbench")
           for p in sorted((SRC.parent.parent / folder).glob("*.py"))]
README = SRC.parent.parent / "README.md"
# bare ValueErrors left to type (ROADMAP item 6): every site is typed
BARE_VALUE_ERRORS = 0
# Field arithmetic the native-number kernels must not call (they use operators)
FIELD_METHODS = {"add", "sub", "mul", "neg", "inv", "div", "pow", "embed"}


def _referenced(node) -> set:
    """Names read under node: bare names, attribute names, and names
    imported from a module of the package."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and (sub.level
                                                  or sub.module.startswith("circuitforge")):
            out.update(alias.name for alias in sub.names)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = TREES[path.name]
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_function_is_referenced(path):
    for fn in TREES[path.name].body:
        if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                and not fn.name.startswith("__")):
            assert fn.name in _package_refs_but(fn), \
                f"{path.name}: {fn.name} is defined but never referenced"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_function_is_referenced(path):
    outside = set().union(*map(_referenced, OUTSIDE))
    for fn in TREES[path.name].body:
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
            assert fn.name in outside | _package_refs_but(fn), \
                f"{path.name}: {fn.name} is defined but never referenced"


def _package_refs_but(fn) -> set:
    """References from anywhere in the package except the function itself."""
    return set().union(*(_referenced(top) for tree in TREES.values()
                         for top in tree.body if top is not fn))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    """Deferred imports inside functions count too."""
    roots = {}
    for node in ast.walk(TREES[path.name]):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            roots.setdefault(name.split(".")[0], node.lineno)
    foreign = sorted(f"{name} (line {line})" for name, line in roots.items()
                     if name not in sys.stdlib_module_names | RUNTIME_DEPENDENCIES)
    assert not foreign, f"{path.name} imports outside the runtime dependencies: {foreign}"


def test_bare_value_errors_only_go_down():
    """Bad input raises a typed ForgeError with its exit code; a broken
    internal state raises InvariantViolated."""
    sites = []
    for name, tree in sorted(TREES.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    sites.append(f"{name}:{node.lineno}")
    assert len(sites) <= BARE_VALUE_ERRORS, sites


def test_names_the_tracer_looks_up_exist():
    """perfbench/tracing.py fetches these functions and methods with getattr,
    so deleting one crashes every traced run; its tables are read as
    literals, without importing it."""
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("PRIVATE_SPANS", "SPAN_METHODS", "COUNT_METHODS"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    assert len(tables) == 3, sorted(tables)
    missing = []
    for layer, names in tables.pop("PRIVATE_SPANS").items():
        defined = {fn.name for fn in TREES[f"{layer}.py"].body if isinstance(fn, ast.FunctionDef)}
        missing += [f"{layer}.{n}" for n in names if n not in defined]
    for table in tables.values():
        for (layer, cls), names in table.items():
            defined = {fn.name for c in TREES[f"{layer}.py"].body
                       if isinstance(c, ast.ClassDef) and c.name == cls
                       for fn in c.body if isinstance(fn, ast.FunctionDef)}
            missing += [f"{layer}.{cls}.{n}" for n in names if n not in defined]
    assert not missing, f"perfbench/tracing.py looks up names src/ no longer defines: {missing}"


# spans the tracer reads that src/ no longer defines: each reads a silent 0 in
# its per-layer metric until the benchmark stops reading it (ROADMAP item 12)
DEAD_TRACER_SPANS = {"factoring.approx_roots", "transforms.homogenize_upto",
                     "transforms.undo_monic_shift", "expsum.circuit_to_formula"}


def test_spans_the_tracer_reads_are_defined_or_pinned_dead():
    """The span names perfbench/tracing.py reads, as text: the arguments of
    `self_s` and `calls` in `raw_quantities`, the `AFTER` keys and the
    `edges.get` pairs. A name src/ does not define is read as 0, not refused,
    so the set of such names is pinned and a change to it is made on purpose."""
    read = set()
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == "raw_quantities":
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if isinstance(func, ast.Name) and func.id in ("self_s", "calls"):
                    read.update(ast.literal_eval(arg) for arg in call.args)
                elif (isinstance(func, ast.Attribute) and func.attr == "get"
                      and isinstance(func.value, ast.Name) and func.value.id == "edges"):
                    read.update(ast.literal_eval(call.args[0]))
        elif (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id == "AFTER"):
            read.update(ast.literal_eval(key) for key in node.value.keys)
    defined = set()
    for name, tree in TREES.items():
        layer = name.removesuffix(".py")
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defined.add(f"{layer}.{top.name}")
            elif isinstance(top, ast.ClassDef):
                defined.update(f"{layer}.{top.name}.{fn.name}" for fn in top.body
                               if isinstance(fn, ast.FunctionDef))
    assert len(read) > 30, sorted(read)
    assert read - defined == DEAD_TRACER_SPANS, sorted(read - defined)


TRACED_RUN = """
import sys
from fractions import Fraction
sys.path[:0] = sys.argv[1:3]
import circuitforge as cf
from tracing import Tracer
tracer = Tracer()
tracer.instrument(cf)
b = cf.CircuitBuilder(cf.Rationals(), 2)
x, y = b.inp(0), b.inp(1)
P = b.finish(b.mul(b.sub(y, x), b.sub(y, b.const(Fraction(2)))))
cf.lift_root(P, y=1, d=1, seed=0)
cf.extract_factor(P, y=1, d=1, seed=0)
edges = tracer.snapshot()["edges"]
print(edges.get(("lifting.lift_root", "dense.expand"), 0),
      edges.get(("factoring.separating_shift", "dense.expand"), 0))
"""


def test_traced_run_counts_the_slice_expansions():
    """The benchmark reads `lifting.translations_tried` and
    `factoring.shift_candidates` off the tracer's span edges into
    `dense.expand`, so the slice expansions must nest under `lift_root` and
    `separating_shift`. The tracer rebinds library names, hence the
    subprocess; it only imports perfbench/."""
    out = subprocess.run([sys.executable, "-c", TRACED_RUN, str(SRC.parent), str(TRACING.parent)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    translations, shift_candidates = map(int, out.stdout.split())
    assert translations > 0 and shift_candidates > 0


def test_only_circuit_py_constructs_circuits():
    """Every Circuit the package returns comes from CircuitBuilder.finish or
    the projection in circuit._remap, so it is finished, and only those two
    set the canonical mark: no other module calls Circuit(...) or touches
    `._canonical`."""
    sites = sorted(
        f"{name}:{node.lineno}" for name, tree in TREES.items() if name != "circuit.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Circuit")
        or (isinstance(node, ast.Attribute) and node.attr == "_canonical"))
    assert not sites, f"circuits made or marked outside circuit.py: {sites}"


def test_univariate_kernel_calls_no_field_method():
    """Every function of dense.py from `_unorm` to `univariate_roots` works
    on ints mod p or Fractions with Python operators."""
    body = [fn for fn in TREES["dense.py"].body if isinstance(fn, ast.FunctionDef)]
    names = [fn.name for fn in body]
    section = body[names.index("_unorm"):names.index("univariate_roots") + 1]
    calls = sorted(f"{fn.name}: .{node.func.attr}() (line {node.lineno})"
                   for fn in section for node in ast.walk(fn)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in FIELD_METHODS)
    assert not calls, f"the univariate kernel calls Field methods: {calls}"


# the packed kernel: its conversions, its two entries and the exact division
PACKED_KERNEL = ("_to_ints", "_from_ints", "_add_into", "_product_terms", "expand_outputs",
                 "compose", "_try_divide", "divides")


def test_packed_kernel_calls_no_field_method():
    functions = {fn.name: fn for fn in TREES["dense.py"].body if isinstance(fn, ast.FunctionDef)}
    assert set(PACKED_KERNEL) <= set(functions), sorted(set(PACKED_KERNEL) - set(functions))
    calls = sorted(f"{name}: .{node.func.attr}() (line {node.lineno})"
                   for name in PACKED_KERNEL for node in ast.walk(functions[name])
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in FIELD_METHODS)
    assert not calls, f"the packed kernel calls Field methods: {calls}"


def test_monomials_have_one_packed_key():
    """`_pack` is called by the monomial key `_key`, and by `_ulinpow` for
    its coefficient slots, and by nothing else: every packed monomial, in
    expansion, composition and division alike, has the one layout, its
    total degree in the top slot."""
    callers = {top.name for tree in TREES.values() for top in ast.walk(tree)
               if isinstance(top, ast.FunctionDef)
               and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                       and node.func.id == "_pack" for node in ast.walk(top))}
    assert callers == {"_key", "_ulinpow"}, sorted(callers)


def test_builder_calls_no_field_method():
    """CircuitBuilder.add and mul fold constants and merge coefficients with
    Python operators, and import_circuit goes through them; finish, the
    reachability sweep and the metrics walk touch gates only. A method of
    the builder itself (`self.add`) is not Field arithmetic."""
    body = TREES["circuit.py"].body
    builder = next(c for c in body if isinstance(c, ast.ClassDef) and c.name == "CircuitBuilder")
    methods = [fn for fn in builder.body if isinstance(fn, ast.FunctionDef)
               and fn.name in ("add", "mul", "import_circuit", "finish")]
    methods += [fn for fn in body if isinstance(fn, ast.FunctionDef)
                and fn.name in ("_reach", "_compute_metrics")]
    assert len(methods) == 6
    uses = sorted(f"{fn.name}: .{node.attr} (line {node.lineno})"
                  for fn in methods for node in ast.walk(fn)
                  if isinstance(node, ast.Attribute) and node.attr in FIELD_METHODS
                  and not (isinstance(node.value, ast.Name) and node.value.id == "self"))
    assert not uses, f"the builder's canonicalization uses Field methods: {uses}"


# the batched identity-test path: numpy columns from the grid batcher through
# the table fold to the scans; a Field method call here is a scalar path
BATCHED_PATH = {
    "circuit.py": ("_grid_batches", "_active_vars", "_active_grid_batches"),
    "pit.py": ("ExplicitPoly.evaluate", "HittingSet.batches", "pit_hitset", "_grid_scan"),
}


def test_batched_identity_tests_call_no_field_method():
    calls = []
    for module, names in BATCHED_PATH.items():
        functions = {}
        for node in TREES[module].body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                functions.update((f"{node.name}.{fn.name}", fn) for fn in node.body
                                 if isinstance(fn, ast.FunctionDef))
        assert set(names) <= set(functions), (module, sorted(set(names) - set(functions)))
        calls += [f"{module} {name}: .{node.func.attr}() (line {node.lineno})"
                  for name in names for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in FIELD_METHODS]
    assert not calls, f"the batched identity tests call Field methods: {calls}"


def test_readme_documents_the_size_and_depth_constants():
    from circuitforge.factoring import FACTOR_DEPTH_SLACK, FACTOR_SIZE_FACTOR
    from circuitforge.lifting import A_STEP_WIRE_LAW, ROOT_SIZE_FACTOR
    from circuitforge.transforms import GENSET_SIZE_FACTOR, HOMOGENIZE_SIZE_FACTOR

    paragraph = README.read_text().split("Key documented constants:", 1)[1].split("\n\n", 1)[0]
    text = " ".join(paragraph.split())
    documented = {  # the figures each pattern reads, in order
        r"size\(H_k\) ≤ (\d+)·k²·size \+ (\d+)·\(k\+1\)": (HOMOGENIZE_SIZE_FACTOR,) * 2,
        r"adds at most `(\d+)·d²` wires per step": (A_STEP_WIRE_LAW,),
        r"at most `(\d+)·\(d\+1\)·size\(P\)` wires": (ROOT_SIZE_FACTOR,),
        r"depth ≤ depth\(P\) \+ (\d+) and at most `(\d+)·d²·size\(P\)` wires":
            (FACTOR_DEPTH_SLACK, FACTOR_SIZE_FACTOR),
        r"within `(\d+)·size\(P\)·r⁵`": (GENSET_SIZE_FACTOR,),
    }
    for pattern, want in documented.items():
        found = re.search(pattern, text)
        assert found, f"the README documents no constant matching {pattern!r}"
        assert tuple(map(int, found.groups())) == want, (pattern, found.group(0))
