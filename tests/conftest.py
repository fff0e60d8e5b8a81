import sys

import pytest

from critlocus.scalars import QQ


# Kernel bases and homology representatives are sparse rows {col: value};
# these two convert between them and the dense vectors of the references.


def densify(v, length, field=QQ):
    """The sparse row ``v`` as a list of ``length`` entries."""
    out = [field.zero] * length
    for j, x in v.items():
        out[j] = x
    return out


def sparsify(v):
    """The dense vector ``v`` as a sparse row of its nonzero entries."""
    return {j: x for j, x in enumerate(v) if x}


@pytest.fixture
def rref_calls(monkeypatch):
    """(name, rows, cols) of the eliminations made from here on, through any
    critlocus module: full ``rref`` passes and ``pivot_columns`` passes."""
    import critlocus.linalg

    calls = []

    def counting(name, original):
        def wrapper(m):
            calls.append((name, m.rows, m.cols))
            return original(m)

        return wrapper

    for name in ("rref", "pivot_columns"):
        original = getattr(critlocus.linalg, name)
        wrapper = counting(name, original)
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
