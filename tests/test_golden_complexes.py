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
    (2, "endomorphism"): "cda22091a7c6dfef5326b0293a719e9988a2c001e8f64327e5c0cca78a53f810",
    (2, "cotangent"): "9c971d919994caa642188a369825f4b75cafd86e1d10b941d8419947dbab2efb",
    (2, "tangent"): "6d07e61a9f9434e085d4683e1504d79929ae0c7ba7ca28278bfb9425fd598725",
    (2, "koszul"): "0c78a1b655f12d87a6caf624abe45e3c18c9ba1413478e79fcd1f10847bd1a3a",
    (3, "endomorphism"): "fcf44be27ba9b5b77e0bc9950279e37565a73b409bff266cb60a3730d86373e0",
    (3, "cotangent"): "35ef84165d7c8518072803b1b0db1b7bf0cf974bb6eff25ac76deaf852abe012",
    (3, "tangent"): "a6b46a32fefd98fc49173efff052a1a370db48dbcfed98cdd4a50df2e193da68",
    (3, "koszul"): "91917337f6fb8b102995a174d65ec5abe55e22c5d666e0cd1f5b2a9feee23906",
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


@pytest.mark.parametrize("n", [2, 3])
def test_built_complexes_match_pinned_digests(n):
    expected = {name: digest for (m, name), digest in DIGESTS.items() if m == n}
    assert built_digests(n) == expected


if __name__ == "__main__":
    for n in (2, 3):
        for name, digest in built_digests(n).items():
            print(f'    ({n}, "{name}"): "{digest}",')
