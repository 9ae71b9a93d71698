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
    "c7/0/given": "90e73996529be82a6e03677217849ed22161a5fdda8adc940955993f4c25fb4b",
    "c7/0/search": "0eec483b43bd391bf84b27a6f90ab824c4b11751e7a7440689af5d590838529a",
    "c7/1/given": "328ddae0e6fd13a6eb9f76752a4627faf2a9496c0f6d2003ad25ea1b673486bb",
    "c7/1/search": "7014be9bf8af232ba6ebc6cb98bbac88bedb82edec8f0532b5761a0a347f5acd",
    "c7/2/given": "7e387fe718b0b8004bda9103cace1d35f3ee7f7717c3193bc908d9787e590b80",
    "c7/2/search": "aaa31a33fe0045d241c4540200c2952b6a989118316e2726f456bb1578d45e73",
    "c7/3/given": "aee45950618ad658af8fe5389130df9f9d4a1545871e704bf5bd0bb8d97cda53",
    "c7/3/search": "aee45950618ad658af8fe5389130df9f9d4a1545871e704bf5bd0bb8d97cda53",
    "c7/40/given": "d9e012b69c7521577170491935a086f735ab057b24145c43d1be85d708baa04e",
    "c7/40/search": "ce60fd13b8cf176a5d99bdf7833b2060e253b48da7024e7023fa3fa43120a786",
    "c7/41/given": "12f4296318c4551ba36544c127f1ce9f3b9a5be5be4f0b5dc9aca6c15f56eb46",
    "c7/41/search": "32cf8d2f6c8997d79244fb499c3fd23863278aa4f5d28a98b40d2ca4f854eaa1",
    "c7/42/given": "002646668d429eada226c5c988e619993fa858b07963f549a34300c5d01b0c79",
    "c7/42/search": "b59599af63190f397a741f5631dffd4dd335a03999f30e3d5036a1f4c1153a5b",
    "c7/75/given": "ae2940807b683519956302ba7a413fae97f00176c78b10e6dc91d1884e95a746",
    "c7/75/search": "84a0cf3ad398b93f17606d317b030c28959690f35599e3a06607c19086a2febb",
    "c7/76/given": "b3e01c68d78767e70c77aa0f368fdc64c695f92697e07d937fd9bb975c94c3ff",
    "c7/76/search": "f54df7afbb0930493d69c343abf22669f0a29ff5e1219001998239ea0ef92e90",
    "c7/90/given": "a9870b34c331d78b301cb4bdcbd96605f938c2f89d42380796c77976b0f1920b",
    "c7/90/search": "0084f7c311e234a14246ed040b16f8c34e7bff5755abd10f825354f285e51394",
    "c7/91/given": "da2eac24ca17d47fcd1bc0ce323f4e654dab371fd769af5b051da1f0e4c16596",
    "c7/91/search": "3229422b8768fd83845bccb2ddd4f1222674cac4928f01281a73c6a7af32813d",
    "c7/97/given": "7902bc4f5c68be69e71c5c29fbf90a304d62fc1c7f4feed26ad861f1e2b1fd45",
    "c7/97/search": "e3c8e77887416392c3e601d2720e75c2d9b7bc6459101c9567500baa3c79e9f0",
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
