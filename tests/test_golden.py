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
    "c7/0/given": "b19fad8b6ddbca2691d57af886ce1fe2ad0f2a8ea98331377747833eaee29cd3",
    "c7/0/search": "1eef65b6df6c8ccb799da5748617debc3d154ee8eb3861f3a99116b445020f17",
    "c7/1/given": "a3a0818b6ba2d0880d63068e3ec30ed6c2d33d121eef303738fc1bcdeb355ab6",
    "c7/1/search": "ef5dccc9fcf89f1bdc4a77377867a1e4910a3e214670321b9363172d07c20ada",
    "c7/2/given": "73c3f7bf44d93606e7672f547c89c8b9346317165fffdd4e2f7c6632b614671f",
    "c7/2/search": "789f20d65e61f3bed7fefe1a8b1658abfced5854af08790daecf1e66da12d527",
    "c7/3/given": "2ced99ba428e3168dc672ecd7deeb274a01d5aeba6389c6963f5e579b4f8295a",
    "c7/3/search": "2ced99ba428e3168dc672ecd7deeb274a01d5aeba6389c6963f5e579b4f8295a",
    "c7/40/given": "f96cefebac0b41e1e4ed92bc852402c1847c25356b764842110b587973c7493a",
    "c7/40/search": "654ab5803ce4742c6239c6667df70140889e4ecf54423bf20850969e77472239",
    "c7/41/given": "794d13ae5d6751e559dcae5d68a830b441bf6221e448cb19676108fcf19678a4",
    "c7/41/search": "2e795d153d23475257e8a8599240e0cc4654c87bffa006d9cef6c2bcd39d424c",
    "c7/42/given": "4c759f19775ada29584f2964e603f826f914f80bf85bd5f45b83b73d4f933fbc",
    "c7/42/search": "1401c6de9d0e9f8086e496a75bceb07754c39764ef5c45a4b742b0095413d1f3",
    "c7/75/given": "708868d9f907b90a9c5946958294cde42d5cf7fa542e5a9508813e2e6068ddbb",
    "c7/75/search": "0d5ea6d7e27972ad8bc0aa2a4b63fe0056b07e69b71a1b0069a43fcbbb1fdc4c",
    "c7/76/given": "a97c79de7013671c681213cf706519953a3bf3a4e3154451bd6f5076d9902b52",
    "c7/76/search": "9aa428953a4f8cd6a91b735ee2c1ef22643b58c644e1fb29a45f6428eb655fa8",
    "c7/90/given": "0b38fe99e70adbcc2093b3a2d794a06a14e7f286e83e10be181f764e2fae4687",
    "c7/90/search": "b915bc480f223290f459d6fdc368b30cf73d8e66edad6d390386850630d06239",
    "c7/91/given": "d37ce4b248768bb1bbfc5d6df09225dea38b9144d8c69cb85956552426c2fe24",
    "c7/91/search": "2360dd5f9b33e77f0b2a42b1bcb372356fd6cf611e3d0b2401de6a2087aa2d93",
    "c7/97/given": "e8761e696040f31b7d0bf02c9465e794ade993f441a0bad882658d513e3371c4",
    "c7/97/search": "11ff227785cb2c6c3e08b88e3207fd992cca6d98fea2f0d40838bc2112a6e22b",
    "c1/qq/0": "46843300f52929cb2c9344071724a672cb31e0f4668704707ea2e29a8781b6c9",
    "c1/qq/3": "800401f7057225fd1c35a43706c64375e33a7cd3c9507db25cfb992f58f83fc6",
    "c1/qq/13": "04a2923dbebc461430a073acecd4506faef4e7de55caa9eb3a2a7a65dd338767",
    "c1/qq/19": "fbef14da132aa745ff1f7804f9abee42517d6b78b8ccca0ce9628e8f4ddbf605",
    "c1/qq/27": "c8798f442657cf1ea3fe77a8e957939fb14f891f713f7a4949b29d6c563cbefb",
    "c1/fp62/1": "67049849969bf8862e09ce31d74518039f4342b12f7bf5dc93d7c9ccd144e5a1",
    "c1/fp62/7": "b3426430267a94c34cd8700e53cf5595afe8ad6a5765e9cab4fcfa92a4d93829",
    "c1/fp62/9": "e08fced19a8deb6bfacc66cecef0cd0265255fffe37786ec353cf2015c998179",
    "c1/fp62/17": "481dbf5e995de9fd3573f7c8966aea05d50755615b993264420f59a78fe10da0",
    "c1/fp62/27": "2fef9ad690ce04799533dcfdd983d03fcde072d4cdee0ec469533542f05d92ca",
}

# vnp-factor: (name, field, factor degree, given subset or None for search).
# The verifiers carry auxiliary blocks that sum to the plain product.
VNP_CASES = (("qq/d1", QQ, 1, None), ("qq/d2", QQ, 2, [0, 1]),
             ("fp62/d1", FP62, 1, None), ("fp62/d2", FP62, 2, [0, 1]))

VNP_GOLDEN = {
    "vnp/qq/d1": "f7edee18e5badaf24f49db9f09696539e3b570a59fb8abf7de02e825ed24eb62",
    "vnp/qq/d2": "b5f740572247cc2c706db248e32827deed1abe9479920911041fef4e86ac62f6",
    "vnp/fp62/d1": "8245db4e49c4749d009cab2c8436139ab6c5f3289493b8b6e0419734234816ce",
    "vnp/fp62/d2": "0dcd7b1f011bd37e7654aee4bc2a4ee39302d7dfed2f53221c118ee619028975",
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
