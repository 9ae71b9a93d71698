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
    "c7/0/given": "a2be77b1660cf81ce01608ff7a2e4174e233971c44978305711029424c5ba0bd",
    "c7/0/search": "b49bc3ab08f902bfe607f110488253b38ad8f084af1aec9a286a89678e3adcf5",
    "c7/1/given": "e8afdf0c3aac0d8251fa31a2d2220a5325906fffe249b8fd03f9b56b096a5810",
    "c7/1/search": "0d6bc071e57b1878b196759c0bb03a716ca61717c82751d626846460f906459c",
    "c7/2/given": "0db73b462789ce0571cea01379fe65e7f993ea428411fc46d36d88d923538fa3",
    "c7/2/search": "c2a8e39ec64c46254a6053e8a7d2d5384ea0a560a17cb276e7358948e087675d",
    "c7/3/given": "18596b454a36f40cbfecfd60ef837ca581b93390e8563b48396050a0d756e24d",
    "c7/3/search": "18596b454a36f40cbfecfd60ef837ca581b93390e8563b48396050a0d756e24d",
    "c7/40/given": "7507e4b16d15a1eee9f9d0cc0b7db59c1b62704e71180f1dfedeff7c07c53d1e",
    "c7/40/search": "a9ee5e89e399378799fac40ed4919520b49fba1afd30ba5ed90330c081e0aee2",
    "c7/41/given": "a13e411faa03c0ce5d301b5080505463bb3fc74a438f81ecd619fca2fb18683b",
    "c7/41/search": "f27a3698be568a148d685989f3364dcde97717884d52b34c6641d6cd60b24d7d",
    "c7/42/given": "2a7854fc38b28cac09c64ee16105e7549a32fd96007f360abb449771b89e2184",
    "c7/42/search": "a62a6816dc5a7be03cbdc2326f95aa37e786548f30faa1a3db14ea553b977968",
    "c7/75/given": "776760d39cfb1003011f3fc594d470b59419d2333ed8d9c7291a5e2f50f0be94",
    "c7/75/search": "d6dde3acbd4a6a188cff2e2120478219d109f383fa3e71766677d326ef3f2138",
    "c7/76/given": "2ed01c04a7612a6be55cde930245ad2d165e57eac8ad2f6c2fe9db5c77c676c7",
    "c7/76/search": "05e467ca74124215589732a2359433d8a66e4a2e22f9c9ec4eab0de255911c2e",
    "c7/90/given": "bf7c53f8312c1b87d010b2e3e865f5fe4f544ec17fb7ac2fc6d36d4bdf62369a",
    "c7/90/search": "4ead5a16fddb1284c18665492f1b87d5afef62a9ee07934c73c22eca4545e62e",
    "c7/91/given": "8e7b03c617b582f9f08ddad1bea09da3c4fb5ef7f5f5e0385109ac7f1f981777",
    "c7/91/search": "13b97cd4413867f5514e0d8373c021cd2dfe8efd7e3cace442237e384ba18897",
    "c7/97/given": "7e2bc3a5fa588bdcd4672242d563e0fa3d699d83423dcf887700658db080218a",
    "c7/97/search": "d56467a1b8e21af806eef2d8557ba7b7b9e55877274c70f1ff8876f041f6fcc6",
    "c1/qq/0": "b07dbb76fe0f68e149a6ed4c919947ae53f0e945afe42137dd98c6ca9107f5d3",
    "c1/qq/3": "50470b85f958807ff735ae71c7f22820f123c38b1b4825c1a01fb9836a2787fd",
    "c1/qq/13": "f9afc247eaaf8e37f6dfaa1b95c8ab1fe7844a2ca7efb1777cabd54af99d6bda",
    "c1/qq/19": "fecf29932d83fd64f6484d7dffc6c0669fd47b010594cb25c5a46fc662aaa6d4",
    "c1/qq/27": "ef4dbc12e1b9ad0d0a136a9102d110619cb2b3228fbec9e7acae94894e400915",
    "c1/fp62/1": "fc4a0a7d7fedc46b4c3f9dd03b73f510f0505d11974d1baed1f09b2234c6c587",
    "c1/fp62/7": "fa9db74a74512e75bb125b8ea2fdc5b46bd8326c7b1ae150eb4c1e53ca978fa7",
    "c1/fp62/9": "9945d1768df7d6814b8b9d110686826f2359397a0b6c45bea5e5e3fa375f786d",
    "c1/fp62/17": "6c8f517eba5dce49c2df5ee9b4bae9e3c2de9188d9e54399b832ab2c2fb3fc8d",
    "c1/fp62/27": "e3bfff005010b8595c03448dff84e3c62d6a7aaf7d11e4a4244d3539c2593d9d",
    "coord/qq/sq-x/0": "c096068233c6056d9df1be30f574208ef262399fd8c780fff127ab1dd355408e",
    "coord/qq/sq/0": "41135967f1776fc8c768a1ae1b5299effad5691acd2aed29763b8ce8214ae625",
    "coord/qq/two/0": "7258f8e414aa09cbdb6cded375bb7586cbc0da33ea531eb2ce5c50c38f7ce1df",
    "coord/qq/two-pair/0": "734dbcd6f39dbb369963fa9d5e3dc8ac3b5187adc72dcc7e37d625b88866b119",
    "coord/qq/sq-x/2": "d18795757211528558422ef63767d9b2ad5cd95ab9b56659f01cf6def1099630",
    "coord/qq/sq/2": "41135967f1776fc8c768a1ae1b5299effad5691acd2aed29763b8ce8214ae625",
    "coord/qq/two/2": "6703fd13b663864d33e5661342f0255d235c2f1bdf0899576bf950ed62d02135",
    "coord/qq/two-pair/2": "2fd69f780f84c88ff450317bcd6f5fa9b63b1af30c9757ff307066e75daef294",
    "coord/fp62/sq-x/0": "12a37ed3ac889328d993fe431f167aa1fc9cc2c99a01cd0f741bb07380df9a0e",
    "coord/fp62/sq/0": "029abc3d301034f73398be2ade6f1072c54f73e74977986f8615b8fbf7bca67b",
    "coord/fp62/two/0": "aec0fd947e96d36b29d5c244ff78927297c7352f55acdeb7e582dab525ead195",
    "coord/fp62/two-pair/0": "de09c7bd94739903136c1984325ce4c7330ee3b6bfe3bd7a712d7ad73560f5c7",
    "coord/fp62/sq-x/2": "6545362dc3aba18d005607a26396b3da2f3066efbc0da6ca711a9d50edce0f94",
    "coord/fp62/sq/2": "029abc3d301034f73398be2ade6f1072c54f73e74977986f8615b8fbf7bca67b",
    "coord/fp62/two/2": "17bba29c837242f845f28db6050d9d245ea186aa32f4b8ae7dac1b3e022791c5",
    "coord/fp62/two-pair/2": "df33f42058b5651139167a9f52be6f128816784b209b2e6835f26e9c97831842",
}

# vnp-factor: (name, field, factor degree, given subset or None for search).
# The verifiers carry auxiliary blocks that sum to the plain product.
VNP_CASES = (("qq/d1", QQ, 1, None), ("qq/d2", QQ, 2, [0, 1]),
             ("fp62/d1", FP62, 1, None), ("fp62/d2", FP62, 2, [0, 1]))

VNP_GOLDEN = {
    "vnp/qq/d1": "1ec31d612439467c498fcf078add49277bc27c656398deedf1ce6b46c75f99df",
    "vnp/qq/d2": "11119546f38cf4b4593c8b59ad30aa2c82815c76856bd79146ed7c34cf0424b7",
    "vnp/fp62/d1": "9cebb8e4f1dff631e82ac3d1ff801b5dc2dc2edc63e8872ac5f1097fffdda245",
    "vnp/fp62/d2": "ae3495cab3dbba12aafc517f1a6136becb2216b4af89cdfe6af1fbc4e48d4ceb",
    "vnp/coord/qq/sq-x/0": "53926cceb066a9f61148ce8669106218edd9c07b614ba16e41d1532685c33b47",
    "vnp/coord/qq/sq/0": "439e102900a7ffc9725fcce1d2b5a0cce3dfd6a1dba6b7140cfa18e350fbd10a",
    "vnp/coord/qq/two/0": "aba2c25d9a76ddb6fa232bc9540ce2b1bceb1d474041840c09114c2e19c3651e",
    "vnp/coord/qq/two-pair/0": "c2d5bb34c44736608de40a808f93bd9b5ff2885f1868ef710b89b5d69039a6df",
    "vnp/coord/qq/sq-x/2": "6c5bd41b8cc6a83bc5a43c903190a22755ba099efa69d30ca2108e62eeb38e11",
    "vnp/coord/qq/sq/2": "439e102900a7ffc9725fcce1d2b5a0cce3dfd6a1dba6b7140cfa18e350fbd10a",
    "vnp/coord/qq/two/2": "423c9d802aa8a0181f448e67d83bbe6cd61ed2b93c1a818c50060f7d2bb3df29",
    "vnp/coord/qq/two-pair/2": "96a1cfb48b4b63fa92f2ff8fafbc72bcb6f75837581e5e923922d3a9357a3f0a",
    "vnp/coord/fp62/sq-x/0": "d865bc45c940188dff49a6ec1134563b88bd279c8454142a036eee88647845ff",
    "vnp/coord/fp62/sq/0": "915bd9f7da20839ac5674a3038086735a06bea01860353fb5fedf117522fb0c2",
    "vnp/coord/fp62/two/0": "2fe81e42e0664f79a3a1b316580a2646c00f12631ffb8d4c97bfbf1866c71aba",
    "vnp/coord/fp62/two-pair/0": "353a0e7dc737fe8665ad17d1f17399ffbfb986eafee2e860dce6cd03bb1570c1",
    "vnp/coord/fp62/sq-x/2": "06ca1471f109ccc1eb06ca82aa1a3309418c5fb84908d1963e57aa994fa004fa",
    "vnp/coord/fp62/sq/2": "915bd9f7da20839ac5674a3038086735a06bea01860353fb5fedf117522fb0c2",
    "vnp/coord/fp62/two/2": "34897aa3ec07185ff0ab9c4f3eab7c23c4be221ad16f0c7834fa880adde03ff1",
    "vnp/coord/fp62/two-pair/2": "090ef892ee484d348e06e599b812cfd847206a0e9de0c35908b087494638bd15",
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
