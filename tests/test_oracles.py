"""The oracles of tests/oracles.py stay off the product kernel they check."""

from zpscodes import Matrix, RingSpec, random_code, standard_form
from zpscodes import matrix, minors
from zpscodes.minors import BlockMinorTable

from oracles import block_minor_sum, det_structured_laplace, det_structured_sum, z4_parity_check


def test_oracles_do_not_reach_the_kernel(monkeypatch):
    structured = Matrix(RingSpec(3, 2), [[2, 5, 7, 1], [1, 4, 8, 3], [0, 1, 3, 6], [0, 0, 1, 5]])
    sf = random_code(RingSpec(3, 3), 8, (1, 2, 1), 5)
    table = BlockMinorTable(sf)
    z4 = standard_form(Matrix(RingSpec(2, 2), [[1, 1, 2, 3], [0, 2, 2, 0], [2, 0, 1, 1]]))

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called the product kernel")

    monkeypatch.setattr(matrix, "_matmul_reduced", refuse)
    monkeypatch.setattr(minors, "_matmul_reduced", refuse)
    # The values the oracles gave when they multiplied through the kernel.
    assert det_structured_sum(structured) == det_structured_laplace(structured) == 5
    assert block_minor_sum(table, 1, 3).tolist() == [[1, 13, 1, 12]]
    assert block_minor_sum(table, 2, 2).tolist() == [[22, 2, 25, 1], [21, 2, 23, 26]]
    assert z4_parity_check(z4).tolist() == [[2, 3, 1, 1], [2, 0, 2, 0]]
