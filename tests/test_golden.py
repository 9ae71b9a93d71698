"""Golden outputs: the sha256 of what the factor, lift-root and vnp-factor
commands write.

Each entry hashes the emitted circuit and the certificate `data` that the
command core produces for one criterion-7 instance (given subset and subset
search), one criterion-1 instance, one factor run whose change of
coordinates is not the identity, or one exp-sum with auxiliary blocks. A
change that must keep outputs byte-identical keeps every hash. A change
that alters bytes on purpose re-pins them: `PYTHONPATH=src python tests/test_golden.py` prints the tables
to paste over GOLDEN and VNP_GOLDEN, and the change says why the bytes moved.
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
    "c7/0/given": "9647bbb6fe5d7a23098302346f2e470766a03ef09d8f659d6bb9d0a925eb7af3",
    "c7/0/search": "462ee81c0ec5d296a44dfc05e2e902b15996795eb78aed889ae228221787223d",
    "c7/1/given": "1a8a0d01429a7b0510e5e66569cca577dab31e3f9dffcdf95af807ed015bc884",
    "c7/1/search": "9da7e58901245bd9576c2439e18de39d4618c5c62830d94e96b6f0df521fa0f7",
    "c7/2/given": "3b9719d4d9f94570486f4645ab021be5703719d2f56b43df3b934c3e82db7e95",
    "c7/2/search": "0fbcf5aea6ef5cbe27cfe385069285f4d4ce50cfdc93fefc73f27e47bb0c21bf",
    "c7/3/given": "74eba7a79243b9e953eb5223e40529cd5261d3cc5b5d365636c52e8ec510245e",
    "c7/3/search": "74eba7a79243b9e953eb5223e40529cd5261d3cc5b5d365636c52e8ec510245e",
    "c7/40/given": "ae9e52833fe4ccda547ffbb74011c5f199b118fb5dde6f8590ba217c9329cfb1",
    "c7/40/search": "691cb320dc58471eabbafbbc58beb204592454af7dec7737bfa5d5e1d5cc021d",
    "c7/41/given": "0f7605d3d56f7904a2d4e5ead258c440dc2eca95124ca49fbb045fbfd7f6039e",
    "c7/41/search": "da58f23947e782f0a3de7994724e54109cbdc67f77cb1fd97cf7d2d10c7a073f",
    "c7/42/given": "de12ede84fd33da613dde03d558c51a796419c8945f2ca194ab95fffa3148eba",
    "c7/42/search": "75a303f427e78f5af98abd834aec65bb6886bd13481cdc749245c7a5753ecec9",
    "c7/75/given": "8a561bc297221a7802bc02b83e6b80d4cb286474bd9d8f86c032dee08f01dd50",
    "c7/75/search": "e5e4e9228439005c30b72f1db3ec766bf3727bf704eea53146601313cab9e171",
    "c7/76/given": "08dc7c37e798dec8f5a8db8a3456befaf79ee1e70f1c6349eaeb0444e8397e39",
    "c7/76/search": "39490d4f14566e18d537f899b1a4b5b3ff4352788152752b29551aee35f5e586",
    "c7/90/given": "6b07ccd9f8c3cdd64c7dd918548927116d8f9ae213d38cab94cc0086a424e69d",
    "c7/90/search": "8d26ef3423991d35dc1e765693bf8bc48ebf8dd2989e6c1f3da4cc412210f2cf",
    "c7/91/given": "57117d678e0ddbab2756b87a98ae8703e802db1652d6de5701c48822575e2e76",
    "c7/91/search": "633269dc986b3b61457de8edb515136afae4eae7978118411cfc7db1bb71f881",
    "c7/97/given": "a344af60d51a97e92cc7c6fbd240c706f87606cdf84eb33b536287663b52ba63",
    "c7/97/search": "94542947e98d55ce48f061ed3efe1d7bbfc26aafca567deb0debf11196948501",
    "c1/qq/0": "b07dbb76fe0f68e149a6ed4c919947ae53f0e945afe42137dd98c6ca9107f5d3",
    "c1/qq/3": "50470b85f958807ff735ae71c7f22820f123c38b1b4825c1a01fb9836a2787fd",
    "c1/qq/13": "f9afc247eaaf8e37f6dfaa1b95c8ab1fe7844a2ca7efb1777cabd54af99d6bda",
    "c1/qq/19": "6baf82f083c5935fe7d563ae663e0f74f915839baac0098d5d5230e3426f942e",
    "c1/qq/27": "97e652bfef76d503f4984d8817c8d151ba3afd5eb751998c1520d8c408951945",
    "c1/fp62/1": "0ba84058af38a54a672d10094d06f6c6af3bd83b70dbb9456b4991182b0cefce",
    "c1/fp62/7": "fa9db74a74512e75bb125b8ea2fdc5b46bd8326c7b1ae150eb4c1e53ca978fa7",
    "c1/fp62/9": "c0409f0735200e0653b8135f5044e257b7be0c37ca015bdbf92ae8ef1565fed4",
    "c1/fp62/17": "96468f80f83d7cc3c5f28bf85a37398c4c1a85c9fc237d6694e3131faaffc950",
    "c1/fp62/27": "b0540284ec0ff6313cdbbdd7debba71bcadbee0b505c4007dcb788a69008cd2d",
    "coord/qq/sq-x/0": "b1b1fa6dc9714b0cbbfac92874ab08f8dde63ed2568855c677d205fde5ac6a72",
    "coord/qq/sq/0": "df3a7070325b20289239c27967075f3785e763a1eddf92ff9f5a5efe88074401",
    "coord/qq/two/0": "25c2a1286920001228732d22f3860eb703e02d6d5e9893d9e868f3e9210c12a2",
    "coord/qq/two-pair/0": "4ea199d07bc0ece7a8e25a9c30f1b049d00707c7978b57d32d30fbb1508ec1ee",
    "coord/qq/sq-x/2": "1b4d9689d3b6382ae088d345a23f3659f39f94f7c0e44cba9eeb5c006ea35361",
    "coord/qq/sq/2": "df3a7070325b20289239c27967075f3785e763a1eddf92ff9f5a5efe88074401",
    "coord/qq/two/2": "ef1bff1175f6c82fc5f11b078415a2a5c14f41879929d23896161dbef5f53f97",
    "coord/qq/two-pair/2": "090745acd8b2a3e185b39004bd81858728bbaa8db0eb8b3a71d11d9f5d1d338c",
    "coord/fp62/sq-x/0": "a10a301e78990bd7cb2d5dfae210fb0d977ac0ad0f52487839ba6cdcb54d442e",
    "coord/fp62/sq/0": "0ba95762ffcd2dea5be33faca363e458921c6ccd8c07e13860579b58640809da",
    "coord/fp62/two/0": "59710494a8fdb3151fb893c89fff4a90990024ac265e69cf2d90bdf1f18a08ec",
    "coord/fp62/two-pair/0": "e785bb97c56560cdd6d7b4d33166cadf16b73d3596a32ee9f6c7a06ad4601c11",
    "coord/fp62/sq-x/2": "66a8a35b31ecc2eb15d3ef366d3997f7af6b3750830a4edcf4d8cebab3861f7c",
    "coord/fp62/sq/2": "0ba95762ffcd2dea5be33faca363e458921c6ccd8c07e13860579b58640809da",
    "coord/fp62/two/2": "101635257f379a1b5aae72953310c5892faac02c24efce2143afae482b4bcfc9",
    "coord/fp62/two-pair/2": "66a070ff353f77c163902fc315164e5827a54f32c2ebd2221d2bf7133337748c",
}

# vnp-factor: (name, field, factor degree, given subset or None for search).
# The verifiers carry auxiliary blocks that sum to the plain product.
VNP_CASES = (("qq/d1", QQ, 1, None), ("qq/d2", QQ, 2, [0, 1]),
             ("fp62/d1", FP62, 1, None), ("fp62/d2", FP62, 2, [0, 1]))

VNP_GOLDEN = {
    "vnp/qq/d1": "143737d5f3509de2a6d1d39700a7aa13a7ccdd0f3fab32f4cdaa73ddc402dc0d",
    "vnp/qq/d2": "3631e078440b958eebe873858e7d9d54041c12a9d1675db01de48c10fc31deb8",
    "vnp/fp62/d1": "7687c91a5651c3f93004555602579757e217746162a9bda195127675fa966b8b",
    "vnp/fp62/d2": "796b082b1a11071662db8daf2408c450c5493faaa92f031c921a3bcf12e91fe2",
    "vnp/coord/qq/sq-x/0": "a1446c3300a7150a3f68a8116cd3d1f6d0253d83ae196ec6b9857d2bd84c59b5",
    "vnp/coord/qq/sq/0": "ab0e73b922b676998871bb7bb207a32dab7f0aef5926f8cfa7f7fb7e8e777454",
    "vnp/coord/qq/two/0": "461e438e192753bc8020c382464aa05a281679d0965848034dce5c603d657470",
    "vnp/coord/qq/two-pair/0": "7079b6063b15fc2ba091fbfc41ab0b655c0a593ed6f9472dcb97cf4284ba1915",
    "vnp/coord/qq/sq-x/2": "e1a786a80bbf3c10f068d2e4ee8d89fbb6ab64c5176b96aa6e7ecbb6ccf74514",
    "vnp/coord/qq/sq/2": "ab0e73b922b676998871bb7bb207a32dab7f0aef5926f8cfa7f7fb7e8e777454",
    "vnp/coord/qq/two/2": "357e1c4396fb2d72b8f2fee1edbc1dacadcf08b2fb3c8941d461421ebe403ec1",
    "vnp/coord/qq/two-pair/2": "60774707feb205955769505ab998e7288939fccc42cc01a00286c5ee7ceea285",
    "vnp/coord/fp62/sq-x/0": "62af530687fb0d6a1de1b9595485141ac59d3cda8b17933995b72626dbcb96af",
    "vnp/coord/fp62/sq/0": "ef8b32122e823daa38a88c68ce95d417f2303e921df5114b5dff7ac639d72102",
    "vnp/coord/fp62/two/0": "f328efc8266d97af9a28641e580f5c82eff931a634e0ac8fe8043b84c26c9f03",
    "vnp/coord/fp62/two-pair/0": "97e410a086f863bfeda02248d6e75ff25f67b4ea09cab89a5385ce79261dbaf2",
    "vnp/coord/fp62/sq-x/2": "116f3ec28b7d5f566bbac6f585887b2c7a8881379ae87773bec6e9c5b9fde5fb",
    "vnp/coord/fp62/sq/2": "ef8b32122e823daa38a88c68ce95d417f2303e921df5114b5dff7ac639d72102",
    "vnp/coord/fp62/two/2": "3e1e2bd0ae9de81a07a2e7dfce85a44273941d56fb09c04a55d051bbfb06c83f",
    "vnp/coord/fp62/two-pair/2": "ba1e1173a5f6f23cf8ae5c51eac18af8cb63b6ed65001f3c43e809ad64ffe42c",
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
    got = {}
    for i in FACTOR_CASES:
        kf, kg = _factor_shape(i)
        field = QQ if i % 3 == 0 else FP62
        n = 2 if (i % 4 == 0 or kf >= 3) else 3
        P, _, subset = _plant_factor_instance(field, _rng("c7", str(i)), n, kf, kg)
        inputs = {"in": emit_circuit(P).encode()}
        for mode, given in (("given", list(subset)), ("search", None)):
            params = dict(BUDGET, y=n, d=kf, subset=given, seed=SESSION_SEED + i)
            got[f"c7/{i}/{mode}"] = _digest(*_core_factor(params, inputs))
    for tag, i, deg_f in ROOT_CASES:
        field = QQ if tag == "qq" else FP62
        n = 1 + (i % 3)
        shape = "multi" if i % 10 in (3, 7, 9) else "yfree"
        P, _, alpha = _plant_root_instance(field, _rng("c1", tag, str(i)), n, deg_f, shape)
        params = dict(BUDGET, y=n, d=deg_f, seed=SESSION_SEED + i,
                      alpha=None if alpha is None else field.format(alpha))
        got[f"c1/{tag}/{i}"] = _digest(*_core_lift_root(params, {"in": emit_circuit(P).encode()}))
    for key, P, d, subset, seed in coord_runs():
        params = dict(BUDGET, y=P.num_vars - 1, d=d, subset=subset, seed=seed)
        got[f"coord/{key}"] = _digest(*_core_factor(params, {"in": emit_circuit(P).encode()}))
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
    got = {}
    for name, field, degree, subset in VNP_CASES:
        params = dict(BUDGET, d=degree, subset=subset, seed=SESSION_SEED)
        inputs = {"in": _vnp_input(field, degree).encode()}
        got[f"vnp/{name}"] = _digest(*_core_vnp_factor(params, inputs))
    for key, P, d, subset, seed in coord_runs():
        params = dict(BUDGET, d=d, subset=subset, seed=seed)
        inputs = {"in": _with_dummy_aux(P).encode()}
        got[f"vnp/coord/{key}"] = _digest(*_core_vnp_factor(params, inputs))
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


if __name__ == "__main__":
    for name, table in (("GOLDEN", outputs()), ("VNP_GOLDEN", vnp_outputs())):
        print(f"{name} = {{")
        for key, value in table.items():
            print(f'    "{key}": "{value}",')
        print("}")
