"""Golden outputs: the sha256 of what the factor, lift-root and vnp-factor
commands write.

Each entry hashes the emitted circuit and the certificate `data` that the
command core produces for one criterion-7 instance (given subset and subset
search), one criterion-1 instance, one factor run whose change of
coordinates is not the identity, or one exp-sum with auxiliary blocks. A
change that must keep outputs byte-identical keeps every hash. A change
that alters bytes on purpose re-pins them: `PYTHONPATH=src python
tests/test_golden.py` prints the tables to paste over GOLDEN and
VNP_GOLDEN, and the change says why the bytes moved. `--dump DIR` writes
every output and certificate data, and `--compare OLD NEW` lists the keys
that moved between two dumps, with each side's polynomial, wires and depth
(tests/golden_tools.py).
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from circuitforge import CircuitBuilder, emit_circuit, expand, extract_factor  # noqa: E402
from circuitforge.cli import (  # noqa: E402
    _core_factor,
    _core_lift_root,
    _core_vnp_factor,
    _emit_esum,
)
from circuitforge.dense import DEFAULT_BUDGET  # noqa: E402
from circuitforge.expsum import ExpSumPoly  # noqa: E402

import golden_tools  # noqa: E402
from test_acceptance import (  # noqa: E402
    FP62,
    QQ,
    SESSION_SEED,
    _plant_factor_instance,
    _plant_root_instance,
    _rng,
)

# criterion-7 instance indices: shapes (1,1) below 40, (2,1) to 74, (3,1) to
# 89, (2,2) to 96, (3,2) above
FACTOR_CASES = (0, 1, 2, 3, 40, 41, 42, 75, 76, 90, 91, 97)
# criterion-1 plans: (tag, index, degree of the planted root)
ROOT_CASES = (("qq", 0, 1), ("qq", 3, 1), ("qq", 13, 2), ("qq", 19, 2), ("qq", 27, 3),
              ("fp62", 1, 1), ("fp62", 7, 2), ("fp62", 9, 2), ("fp62", 17, 3),
              ("fp62", 27, 4))
# factor runs whose change of coordinates is not the identity, at seeds 0 and
# 2 over Q and F_p: (y - x1 - 1)^2 (x1 - 2) is sheared with a non-unit lead and
# factored at derivative level 1, (y - x1)^2 at level 1, and
# (y - x1 - x1*x2)(y - x2 - 3) is sheared and needs a nonzero separating
# shift; its degree-2 factor takes a root pair that depends on field and seed
COORD_CASES = (("sq-x", 1), ("sq", 1), ("two", 2))
COORD_SEEDS = (0, 2)
COORD_PAIRS = {("qq", 0): [1, 2], ("qq", 2): [0, 2], ("fp62", 0): [0, 2], ("fp62", 2): [0, 1]}

BUDGET = {"budget_terms": DEFAULT_BUDGET.max_terms, "budget_degree": DEFAULT_BUDGET.max_degree}

GOLDEN = {
    "c7/0/given": "6e4113456eedd0dab6558ab3a29c05a4797d20e7802db88a61954a1df1051b41",
    "c7/0/search": "e6f1baa91e5e41193025f197165776d53c1f53fb886a0624b22ab2b726684971",
    "c7/1/given": "a34dbcabeecfeb7b2dcfb58d0f3a2cf8f3d3830e4d5763ada24358dc8cb31dff",
    "c7/1/search": "e9041c962fd32455cca4b3136b62843d4175e8b522ccc2287c0f17cb552886f1",
    "c7/2/given": "0db73b462789ce0571cea01379fe65e7f993ea428411fc46d36d88d923538fa3",
    "c7/2/search": "c2a8e39ec64c46254a6053e8a7d2d5384ea0a560a17cb276e7358948e087675d",
    "c7/3/given": "18596b454a36f40cbfecfd60ef837ca581b93390e8563b48396050a0d756e24d",
    "c7/3/search": "18596b454a36f40cbfecfd60ef837ca581b93390e8563b48396050a0d756e24d",
    "c7/40/given": "7507e4b16d15a1eee9f9d0cc0b7db59c1b62704e71180f1dfedeff7c07c53d1e",
    "c7/40/search": "e98d75a105ebc9239f403db457efa22ff3f8fe4d569f9d3924dba9ec08585d40",
    "c7/41/given": "a13e411faa03c0ce5d301b5080505463bb3fc74a438f81ecd619fca2fb18683b",
    "c7/41/search": "f27a3698be568a148d685989f3364dcde97717884d52b34c6641d6cd60b24d7d",
    "c7/42/given": "fed584a0d322da5e4f591db41dd79fdecc1451cb86f7cadd593883aff2e761d2",
    "c7/42/search": "3e526fb973dd948f36dcece2eac39441e38b35a631cbc89d7a888ea6ceb70108",
    "c7/75/given": "b70c2f9cee307de2b8e23f690ca7ecc2ee40a6bb3c63d7a5abeafae59530a00e",
    "c7/75/search": "830b69684078215c027fa04b8fbafd856e58ab4e2fd77e9c87cedcffc49532c6",
    "c7/76/given": "374d9ee9227c5cb66ce669cee7793c3d229a6dd9a7aca15af090792be29f2de1",
    "c7/76/search": "1d2aa624840c3ddc50b0ea19cdafa010f44735fd0f67ec7eb6aeeff8922d83a0",
    "c7/90/given": "324bbc3920baa427ccb3aafbfd0d7970f58e66230f2f1db27df157f6585e920b",
    "c7/90/search": "4ead5a16fddb1284c18665492f1b87d5afef62a9ee07934c73c22eca4545e62e",
    "c7/91/given": "1d2b67c3d1a4c85b38a2f12d56c1a265db0b38e8095d6d3c855ca1441f95cc87",
    "c7/91/search": "fa52490849299b6835f33a88e8083b843387e15034f4a7251f7dfb544ef2518b",
    "c7/97/given": "850d2948c12667c043694898158c64cbec08814d1a38102da2c984085ca6ced2",
    "c7/97/search": "6946756b1b2ee6de9504b9b638214093d11eb79d68c45c8e37628f6ad959cf97",
    "c1/qq/0": "3ebb9559554c5e8adbe528bc21d89e83ceaca70654f0658207cf95223ea24e7e",
    "c1/qq/3": "a26ede5e5ac69b29ba0c13db672c98a89d507d2b248dec0e65178af36aa06be0",
    "c1/qq/13": "0a314789ddefcc8bd69f8871057918916b72da9387ef52ace0dee90d19f390ec",
    "c1/qq/19": "79d0bd6982c86a2fa6142cd9590ae14206f28408211dbbe596a565467c2ed538",
    "c1/qq/27": "f913d862b51e97b3246333c8c11b51e8271476fa877b9284df1f91f32615ddec",
    "c1/fp62/1": "85e8414cdf364b9af9353c49146a00f423e9e312d1f81e65dcd7852e73d1221a",
    "c1/fp62/7": "ca7329e18aa75dcc63d2a17d9d12040bf9b1b8d186ac6af973b351e9241f9196",
    "c1/fp62/9": "9d660c86972b37a8fc448069023b3fd568b701394762681e738b3d029841e25f",
    "c1/fp62/17": "173c5327bac64fac6ae9b646ac66327960583dc8d0b1b2e418bf172e8ddc0e8f",
    "c1/fp62/27": "f99096d91a6b2d0e033156cda83f05f1529e5548db79a35534a1774764b3eef1",
    "coord/qq/sq-x/0": "c096068233c6056d9df1be30f574208ef262399fd8c780fff127ab1dd355408e",
    "coord/qq/sq/0": "41135967f1776fc8c768a1ae1b5299effad5691acd2aed29763b8ce8214ae625",
    "coord/qq/two/0": "f80ac14b7c27c2284cd7c6b101ab7f25a7fb9c708ea50109b0b598e221e0ee47",
    "coord/qq/two-pair/0": "8128a9b4fddb0d8473838a5dc3944922999bc7daa466b9fc54b8a44eaf6d37b3",
    "coord/qq/sq-x/2": "d18795757211528558422ef63767d9b2ad5cd95ab9b56659f01cf6def1099630",
    "coord/qq/sq/2": "41135967f1776fc8c768a1ae1b5299effad5691acd2aed29763b8ce8214ae625",
    "coord/qq/two/2": "ecf8379eb4b5a7aa471f5305b503837db7bcf1ce60c0df25488933ce2a6cffc8",
    "coord/qq/two-pair/2": "2fd69f780f84c88ff450317bcd6f5fa9b63b1af30c9757ff307066e75daef294",
    "coord/fp62/sq-x/0": "12a37ed3ac889328d993fe431f167aa1fc9cc2c99a01cd0f741bb07380df9a0e",
    "coord/fp62/sq/0": "029abc3d301034f73398be2ade6f1072c54f73e74977986f8615b8fbf7bca67b",
    "coord/fp62/two/0": "0dce8cbeb32182779e8264051b063f3080616894c0a745b7ca219438b6174e2d",
    "coord/fp62/two-pair/0": "be55082d36f22ff4b1501de0f9eecc53e950c4ab41bb994cdca82c5f3e5ba59f",
    "coord/fp62/sq-x/2": "6545362dc3aba18d005607a26396b3da2f3066efbc0da6ca711a9d50edce0f94",
    "coord/fp62/sq/2": "029abc3d301034f73398be2ade6f1072c54f73e74977986f8615b8fbf7bca67b",
    "coord/fp62/two/2": "63ea366e3df5db775409cdbe38b618f22b9671d262f84679f218ce075ee56587",
    "coord/fp62/two-pair/2": "df33f42058b5651139167a9f52be6f128816784b209b2e6835f26e9c97831842",
}

# vnp-factor: (name, field, factor degree, given subset or None for search).
# The verifiers carry auxiliary blocks that sum to the plain product.
VNP_CASES = (("qq/d1", QQ, 1, None), ("qq/d2", QQ, 2, [0, 1]),
             ("fp62/d1", FP62, 1, None), ("fp62/d2", FP62, 2, [0, 1]))

VNP_GOLDEN = {
    "vnp/qq/d1": "f18f1b49f2037b2a1183b1558c79336aae878fd1fef66b437c1fc820a820f505",
    "vnp/qq/d2": "f658899dbd4cf50a100b81c560a80d0b2725d822aa41104da5645dac4e27a9d1",
    "vnp/fp62/d1": "959c89a9a622f7639476a6af94c86124f2ec8c1f5f6ee7ba241a37cbc67470ed",
    "vnp/fp62/d2": "512978b842441ff29fff0b74bbc56020774844cc199fd167e1f22451afd9df38",
    "vnp/coord/qq/sq-x/0": "771e26a2ab8e77b986c612eee8b1a627565ce4453d19ee3293e87f2ecc95eb30",
    "vnp/coord/qq/sq/0": "8da7b70fa478db179268a97c92614dc0124bd827db8d5ba714eac1f822e157d8",
    "vnp/coord/qq/two/0": "184747fefd716b5e4b298aba17f2fca3182336a17ad863ccc792879e2747e4eb",
    "vnp/coord/qq/two-pair/0": "a13ede718903f8fd9bdd715d689aa3667021ad852fa86c9853309cba6ebb461b",
    "vnp/coord/qq/sq-x/2": "831aeac7e0ca1cc0ba66a03fb40a2b6a2f5c86c50fc67e805f6de7bf159f3093",
    "vnp/coord/qq/sq/2": "8da7b70fa478db179268a97c92614dc0124bd827db8d5ba714eac1f822e157d8",
    "vnp/coord/qq/two/2": "a2d6ffe0e3bb273a715ea9f5b7a6b5acbe38b34b3b12658f8a0d582f75ce26da",
    "vnp/coord/qq/two-pair/2": "71d46a3efb42d93ed3fc0e003ce032737e2dc90a90996898e06a845d0647e08f",
    "vnp/coord/fp62/sq-x/0": "f9fb56c42c741c2c263c5233060419d8ea741efde7eed238c4da3a2edb117f5d",
    "vnp/coord/fp62/sq/0": "0771095fa92268ef7659c8946556efb7bb07d71b49d02140011281360b12c249",
    "vnp/coord/fp62/two/0": "64545d189366052f836a2b732ecc2c3d4f9dd3d24ed51f8372f58b4d3988d69d",
    "vnp/coord/fp62/two-pair/0": "da1006853eb84d8dcaefd3699ce05e1f9c3e08b40bb6dec420dd9abc8f681223",
    "vnp/coord/fp62/sq-x/2": "1b81e63199e8e5a1fe6eecbb51c4fe2bcab48ff60ecef0ea9dc85053a9de63d4",
    "vnp/coord/fp62/sq/2": "0771095fa92268ef7659c8946556efb7bb07d71b49d02140011281360b12c249",
    "vnp/coord/fp62/two/2": "4f4cedcc8924ac1efebf4e8fa9bc1b14aea982d78bbdab3b4716d3850e556750",
    "vnp/coord/fp62/two-pair/2": "d956cc3575d3c622f517f424ebeec5180a44e79e9f6e8512fb76505572c9b098",
}


def _digest(outs, data) -> str:
    h = hashlib.sha256(outs["out"])
    h.update(json.dumps(data, sort_keys=True, default=str).encode())
    return h.hexdigest()


def _factor_shape(i):
    for end, shape in ((40, (1, 1)), (75, (2, 1)), (90, (3, 1)), (97, (2, 2))):
        if i < end:
            return shape
    return (3, 2)


def outputs() -> dict:
    return {key: _digest(*run) for key, run in factor_runs().items()}


def factor_runs() -> dict:
    """(outputs, data) of every factor and lift-root run, by GOLDEN key."""
    got = {}
    for i in FACTOR_CASES:
        kf, kg = _factor_shape(i)
        field = QQ if i % 3 == 0 else FP62
        n = 2 if (i % 4 == 0 or kf >= 3) else 3
        P, _, subset = _plant_factor_instance(field, _rng("c7", str(i)), n, kf, kg)
        inputs = {"in": emit_circuit(P).encode()}
        for mode, given in (("given", list(subset)), ("search", None)):
            params = dict(BUDGET, y=n, d=kf, subset=given, seed=SESSION_SEED + i)
            got[f"c7/{i}/{mode}"] = _core_factor(params, inputs)
    for tag, i, deg_f in ROOT_CASES:
        field = QQ if tag == "qq" else FP62
        n = 1 + (i % 3)
        shape = "multi" if i % 10 in (3, 7, 9) else "yfree"
        P, _, alpha = _plant_root_instance(field, _rng("c1", tag, str(i)), n, deg_f, shape)
        params = dict(BUDGET, y=n, d=deg_f, seed=SESSION_SEED + i,
                      alpha=None if alpha is None else field.format(alpha))
        got[f"c1/{tag}/{i}"] = _core_lift_root(params, {"in": emit_circuit(P).encode()})
    for key, P, d, subset, seed in coord_runs():
        params = dict(BUDGET, y=P.num_vars - 1, d=d, subset=subset, seed=seed)
        got[f"coord/{key}"] = _core_factor(params, {"in": emit_circuit(P).encode()})
    return got


def coord_poly(field, name):
    """One of the COORD_CASES polynomials, y the last variable."""
    nv = 3 if name.startswith("two") else 2
    b = CircuitBuilder(field, nv)
    x1, y = b.inp(0), b.inp(nv - 1)
    if name == "sq-x":
        lin = b.sub(y, b.add(x1, b.const(field.one)))
        return b.finish(b.mul(lin, lin, b.sub(x1, b.const(field.embed(2)))))
    if name == "sq":
        return b.finish(b.mul(b.sub(y, x1), b.sub(y, x1)))
    x2 = b.inp(1)
    return b.finish(b.mul(b.sub(y, b.add(x1, b.mul(x1, x2))),
                          b.sub(y, b.add(x2, b.const(field.embed(3))))))


def coord_runs():
    """(key, P, d, subset, seed) of each coordinate-change factor run, per
    field and seed: subset search on every case, then the given root pair
    of the degree-2 factor."""
    for tag, field in (("qq", QQ), ("fp62", FP62)):
        for seed in COORD_SEEDS:
            runs = [(name, d, None) for name, d in COORD_CASES]
            for name, d, subset in runs + [("two-pair", 2, COORD_PAIRS[tag, seed])]:
                yield f"{tag}/{name}/{seed}", coord_poly(field, name), d, subset, seed


def _vnp_input(field, degree):
    """Exp-sum text over x1, z and two auxiliaries a1, a2. Degree 1:
    (z - x1 - 2)(z - 3) a1 a2 + (a1 - a2) x1 z. Degree 2:
    (z - x1)(z - 1 - x1)(z - 5) a1^2 a2 + (a1 - a2)(a1 + a2) x1 z^2. The
    second terms sum to 0 over the cube."""
    b = CircuitBuilder(field, 4)
    x1, z, a1, a2 = (b.inp(i) for i in range(4))

    def c(v):
        return b.const(field.embed(v))

    if degree == 1:
        planted = b.mul(b.sub(z, b.add(x1, c(2))), b.sub(z, c(3)), a1, a2)
        zero_sum = b.mul(b.sub(a1, a2), x1, z)
    else:
        cubic = b.mul(b.sub(z, x1), b.sub(z, b.add(c(1), x1)), b.sub(z, c(5)))
        planted = b.mul(cubic, a1, a1, a2)
        zero_sum = b.mul(b.sub(a1, a2), b.add(a1, a2), x1, z, z)
    return _emit_esum(ExpSumPoly(b.finish(b.add(planted, zero_sum)), (2, 3)))


def _with_dummy_aux(P):
    """The exp-sum P(x, y) * a over one auxiliary a: it represents P."""
    b = CircuitBuilder(P.field, P.num_vars + 1)
    ver = b.finish(b.mul(b.import_circuit(P)[0], b.inp(P.num_vars)))
    return _emit_esum(ExpSumPoly(ver, (P.num_vars,)))


def vnp_outputs() -> dict:
    return {key: _digest(*run) for key, run in vnp_runs().items()}


def vnp_runs() -> dict:
    """(outputs, data) of every vnp-factor run, by VNP_GOLDEN key."""
    got = {}
    for name, field, degree, subset in VNP_CASES:
        params = dict(BUDGET, d=degree, subset=subset, seed=SESSION_SEED)
        inputs = {"in": _vnp_input(field, degree).encode()}
        got[f"vnp/{name}"] = _core_vnp_factor(params, inputs)
    for key, P, d, subset, seed in coord_runs():
        params = dict(BUDGET, d=d, subset=subset, seed=seed)
        inputs = {"in": _with_dummy_aux(P).encode()}
        got[f"vnp/coord/{key}"] = _core_vnp_factor(params, inputs)
    return got


def test_outputs_match_golden_hashes():
    got = outputs()
    changed = sorted(k for k in GOLDEN if got.get(k) != GOLDEN[k])
    assert set(got) == set(GOLDEN)
    assert not changed, f"output bytes changed for {changed}"


def test_vnp_factor_outputs_match_golden_hashes():
    got = vnp_outputs()
    changed = sorted(k for k in VNP_GOLDEN if got.get(k) != VNP_GOLDEN[k])
    assert set(got) == set(VNP_GOLDEN)
    assert not changed, f"output bytes changed for {changed}"


def test_to_lifted_is_the_bundle_source():
    """The factor's change of coordinates carries P to the polynomial its
    roots were lifted from, on inputs that exercise each of its steps."""
    sheared = leveled = shifted = False
    for _, P, d, subset, seed in coord_runs():
        fr = extract_factor(P, P.num_vars - 1, d, subset=subset, seed=seed)
        assert expand(fr.to_lifted(P)) == expand(fr.bundle.source)
        sheared |= any(fr.monic.shift) and fr.monic.leading_unit != P.field.one
        leveled |= fr.deriv_level == 1
        shifted |= any(fr.bundle.shift)
    assert sheared and leveled and shifted


def _dumped() -> dict:
    """Every hashed output and certificate data, as files by key."""
    return {key: {"out": outs["out"],
                  "data.json": json.dumps(data, sort_keys=True, default=str).encode()}
            for key, (outs, data) in {**factor_runs(), **vnp_runs()}.items()}


def _print_tables():
    for name, table in (("GOLDEN", outputs()), ("VNP_GOLDEN", vnp_outputs())):
        print(f"{name} = {{")
        for key, value in table.items():
            print(f'    "{key}": "{value}",')
        print("}")


if __name__ == "__main__":
    sys.exit(golden_tools.main(_dumped, _print_tables))
