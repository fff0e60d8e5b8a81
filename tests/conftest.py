import sys

import pytest


@pytest.fixture
def rref_calls(monkeypatch):
    """Shapes of the rref calls made from here on, through any critlocus module."""
    import critlocus.linalg

    original = critlocus.linalg.rref
    calls = []

    def counting(m):
        calls.append((m.rows, m.cols))
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("critlocus") and getattr(module, "rref", None) is original:
            monkeypatch.setattr(module, "rref", counting)
    return calls


@pytest.fixture
def matmul_calls(monkeypatch):
    """Shapes (rows, inner, cols) of the dense products made from here on."""
    from critlocus.linalg import DenseMatrix

    original = DenseMatrix.matmul
    calls = []

    def counting(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return original(a, b)

    monkeypatch.setattr(DenseMatrix, "matmul", counting)
    return calls
