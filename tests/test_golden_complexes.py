"""The built symbolic complexes, pinned by the sha256 of their JSON.

A refactor of the symbolic builders must leave every complex identical
entry for entry.  ``FreeComplex.to_json`` writes each entry as normal-form
text with sorted keys, so equal complexes give equal digests.  After a
change that is meant to alter a complex, print the new digests with

    PYTHONPATH=src python tests/test_golden_complexes.py
"""

import hashlib

import pytest

from critlocus.family import EndomorphismModel, TangentModel, build_universal_family
from critlocus.potential import CotangentModel, MatrixCdga

DIGESTS = {
    (1, "endomorphism"): "ffbfc0bf7c53b78b8465220e330daacde363d5a95948b3191bc5f91d144eabd7",
    (1, "cotangent"): "5e408c1fea2acb41a73a65dddb2ef29096db549c7ec30bd61ec7da6bfda93a0a",
    (1, "tangent"): "ffbfc0bf7c53b78b8465220e330daacde363d5a95948b3191bc5f91d144eabd7",
    (1, "koszul"): "5482647e5d2b422ec1dbfc1800d5fa0a99d69a0920acc5a22e9d096e4f5f2222",
    (2, "endomorphism"): "cda22091a7c6dfef5326b0293a719e9988a2c001e8f64327e5c0cca78a53f810",
    (2, "cotangent"): "9c971d919994caa642188a369825f4b75cafd86e1d10b941d8419947dbab2efb",
    (2, "tangent"): "6d07e61a9f9434e085d4683e1504d79929ae0c7ba7ca28278bfb9425fd598725",
    (2, "koszul"): "0c78a1b655f12d87a6caf624abe45e3c18c9ba1413478e79fcd1f10847bd1a3a",
    (3, "endomorphism"): "fcf44be27ba9b5b77e0bc9950279e37565a73b409bff266cb60a3730d86373e0",
    (3, "cotangent"): "35ef84165d7c8518072803b1b0db1b7bf0cf974bb6eff25ac76deaf852abe012",
    (3, "tangent"): "a6b46a32fefd98fc49173efff052a1a370db48dbcfed98cdd4a50df2e193da68",
    (3, "koszul"): "91917337f6fb8b102995a174d65ec5abe55e22c5d666e0cd1f5b2a9feee23906",
    (4, "endomorphism"): "462791f91746abb28e1fc0c1e449accdca7d4cf4e1d491c42404a4079de728d5",
    (4, "cotangent"): "6b4b216a3542f3cb749750b6fcfa3f2a0910386df4479ded042d90563bf9956b",
    (4, "tangent"): "616ab3c8149ef2bd9a322d5ab0ef0b7f56437c40fe67413fdf00fbb3f781d27a",
    (4, "koszul"): "e9ad665e2e1af454ab916049bf646759cfdba9f813fa68ca3a032dc5f2fe594d",
    (5, "endomorphism"): "030698c11a940a5eb718429f4e37ca5b832ddbd089153203ffc50c1d1510c193",
    (5, "cotangent"): "9a1960a9073f5816126de0463e104dd945ca8ecadd09bba161412f6fe976f357",
    (5, "tangent"): "388e9eec2742c2c4b9164ea2e8cf2f4d177a0f25ba97f0d370b1915a3438cba0",
    (5, "koszul"): "5138b5392e8e993a7eeffd2fef2e323b1252f5d009dfbe4e5ce215b638913845",
}


def built_digests(n: int) -> dict:
    """name -> sha256 of ``to_json()`` for each complex built at rank n."""
    cdga = MatrixCdga(n)
    cot = CotangentModel(cdga)
    complexes = {
        "endomorphism": EndomorphismModel(build_universal_family(n, cdga)).complex,
        "cotangent": cot.complex,
        "tangent": TangentModel(cot).complex,
        "koszul": cdga.koszul_display(),
    }
    return {name: hashlib.sha256(cx.to_json().encode()).hexdigest() for name, cx in complexes.items()}


RANKS = sorted({n for n, _ in DIGESTS})


@pytest.mark.parametrize("n", RANKS)
def test_built_complexes_match_pinned_digests(n):
    expected = {name: digest for (m, name), digest in DIGESTS.items() if m == n}
    assert built_digests(n) == expected


if __name__ == "__main__":
    for n in RANKS:
        for name, digest in built_digests(n).items():
            print(f'    ({n}, "{name}"): "{digest}",')
