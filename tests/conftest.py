import sys
from fractions import Fraction
from math import gcd, lcm

import pytest

from critlocus.scalars import QQ


# Kernel bases and homology representatives are sparse rows {col: value};
# densify and sparsify convert between them and the dense vectors of the
# references, and primitive gives the integer form of a QQ kernel vector.


def densify(v, length, field=QQ):
    """The sparse row ``v`` as a list of ``length`` entries."""
    out = [field.zero] * length
    for j, x in v.items():
        out[j] = x
    return out


def primitive(v):
    """The rational vector ``v`` as its primitive integer multiple with the
    sign of ``v``: times the lcm of its denominators, over the gcd of the
    numerators that gives."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = gcd(*ints) or 1
    return [x // g for x in ints]


def sparsify(v):
    """The dense vector ``v`` as a sparse row of its nonzero entries."""
    return {j: x for j, x in enumerate(v) if x}


@pytest.fixture
def rref_calls(monkeypatch):
    """(kind, rows, cols) of the elimination passes made from here on,
    through any critlocus module: kind "forward" for each
    ``linalg.eliminate`` call, ``rref`` and ``pivot_columns`` included, with
    the length of its column list as cols when it is given one, and "back"
    for each ``back_substitute`` call, with the echelon's shape."""
    import critlocus.linalg

    calls = []

    def counting(kind, original):
        def wrapper(m, *args):
            width = len(args[0]) if kind == "forward" and args and args[0] is not None else m.cols
            calls.append((kind, m.rows, width))
            return original(m, *args)

        return wrapper

    for kind, name in (("forward", "eliminate"), ("back", "back_substitute")):
        original = getattr(critlocus.linalg, name)
        wrapper = counting(kind, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("critlocus") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def matmul_calls(monkeypatch):
    """Shapes (rows, inner, cols) of the dense products made from here on:
    ``DenseMatrix.matmul`` calls and ``product_first_nonzero`` searches,
    which read the same product kernel without building the product."""
    import critlocus.linalg
    from critlocus.linalg import DenseMatrix

    calls = []

    def counting(original):
        def wrapper(a, b):
            calls.append((a.rows, a.cols, b.cols))
            return original(a, b)

        return wrapper

    monkeypatch.setattr(DenseMatrix, "matmul", counting(DenseMatrix.matmul))
    original = critlocus.linalg.product_first_nonzero
    wrapper = counting(original)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("critlocus") and getattr(module, "product_first_nonzero", None) is original:
            monkeypatch.setattr(module, "product_first_nonzero", wrapper)
    return calls


@pytest.fixture
def compile_calls(monkeypatch):
    """The SymMatrix of each ``CompiledMatrix`` built from here on."""
    from critlocus.complexes import CompiledMatrix

    calls = []
    original = CompiledMatrix.__init__

    def counting(self, m):
        calls.append(m)
        original(self, m)

    monkeypatch.setattr(CompiledMatrix, "__init__", counting)
    return calls
