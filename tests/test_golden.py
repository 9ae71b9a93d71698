"""Golden outputs: the sha256 of what the factor, lift-root and vnp-factor
commands write.

Each entry hashes the emitted circuit and the certificate `data` that the
command core produces for one criterion-7 instance (given subset and subset
search), one criterion-1 instance or one exp-sum with auxiliary blocks. A
change that must keep outputs byte-identical keeps every hash. A change
that alters bytes on purpose re-pins them: `PYTHONPATH=src python tests/test_golden.py` prints the tables
to paste over GOLDEN and VNP_GOLDEN, and the change says why the bytes moved.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from circuitforge import CircuitBuilder, emit_circuit  # noqa: E402
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
}

# vnp-factor: (name, field, factor degree, given subset or None for search).
# The verifiers carry auxiliary blocks that sum to the plain product.
VNP_CASES = (("qq/d1", QQ, 1, None), ("qq/d2", QQ, 2, [0, 1]),
             ("fp62/d1", FP62, 1, None), ("fp62/d2", FP62, 2, [0, 1]))

VNP_GOLDEN = {
    "vnp/qq/d1": "112cb116cd65b6f28e136134263d5cddb110352dade2ed62e5232273c41d2fdb",
    "vnp/qq/d2": "70c52c1a76c75906d45d1ceb0fd0180aa36bec511f489ab75be9f5a3769c519e",
    "vnp/fp62/d1": "cb2f9d313ec59a82e40e78495d57d262744c5e84ad60466f37e49cca6877e89a",
    "vnp/fp62/d2": "9a84ff06e02bb902040cb0d64d6498adea3ed3d8a88e62a0414ce14b89181624",
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
    return got


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


def vnp_outputs() -> dict:
    got = {}
    for name, field, degree, subset in VNP_CASES:
        params = dict(BUDGET, d=degree, subset=subset, seed=SESSION_SEED)
        inputs = {"in": _vnp_input(field, degree).encode()}
        got[f"vnp/{name}"] = _digest(*_core_vnp_factor(params, inputs))
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


if __name__ == "__main__":
    for name, table in (("GOLDEN", outputs()), ("VNP_GOLDEN", vnp_outputs())):
        print(f"{name} = {{")
        for key, value in table.items():
            print(f'    "{key}": "{value}",')
        print("}")
