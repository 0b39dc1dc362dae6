"""The band prune of ``build_local_system`` pinned to its LIL construction.

``LocalSystem.dep`` is ``A[J_l, :]`` without its ``J_l`` columns, built
by masking those columns on the CSR arrays (``core.local.prune_band``).  The
reference is the plain LIL construction (``tolil``, assign zero to the
``J_l`` columns, ``tocsr``, ``eliminate_zeros``); the two must agree
array for array -- ``indptr``, ``indices`` and ``data`` -- so every
``dep @ z`` sums the same terms in the same order and iterates stay
bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.local import build_local_system
from repro.direct import get_solver
from repro.linalg.sparse import as_csr
from test_runtime_conformance import PARTITION_KINDS, _general_problem


def _lil_dep(band: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """Reference: the LIL round-trip the mask prune replaced."""
    # ``tolil`` canonicalises its source in place; work on a copy.
    dep = band.copy().tolil(copy=True)
    dep[:, rows] = 0.0
    dep = dep.tocsr()
    dep.eliminate_zeros()
    return dep


def _assert_pinned(dep: sp.csr_matrix, band: sp.csr_matrix, rows: np.ndarray):
    ref = _lil_dep(band, rows)
    assert dep.shape == ref.shape
    np.testing.assert_array_equal(dep.indptr, ref.indptr)
    np.testing.assert_array_equal(dep.indices, ref.indices)
    np.testing.assert_array_equal(dep.data, ref.data)
    # No stored coupling column lies in J_l.
    assert not np.isin(dep.indices, rows).any()


def _build(band, rows):
    return build_local_system(
        None, None, rows, 0, get_solver("scipy"),
        band=band, b_sub=np.ones(rows.size),
    )


@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_dep_matches_lil_on_every_partition_shape(kind):
    A, b, part, _ = _general_problem(kind)
    csr = as_csr(A)
    for l, rows in enumerate(part.sets):
        system = build_local_system(csr, b, rows, l, get_solver("scipy"))
        _assert_pinned(system.dep, csr[rows, :], rows)
        assert system.rhs_flops == 2.0 * system.dep.nnz


def _scrambled(band: sp.csr_matrix, owned_col: int, free_col: int) -> sp.csr_matrix:
    """``band`` with every row reversed and three duplicates added to row 0.

    The duplicates split an owned entry, split a coupling entry, and add a
    ``+1 / -1`` pair that sums to an explicit zero outside ``J_l``.
    """
    data, indices, indptr = [], [], [0]
    for i in range(band.shape[0]):
        lo, hi = band.indptr[i], band.indptr[i + 1]
        cols = list(band.indices[lo:hi][::-1])
        vals = list(band.data[lo:hi][::-1])
        if i == 0:
            cols += [owned_col, free_col, free_col + 1, free_col + 1]
            vals += [0.25, 0.5, 1.0, -1.0]
        indices += cols
        data += vals
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices), np.array(indptr)), shape=band.shape
    )


def test_dep_matches_lil_on_a_non_canonical_band():
    A, _, part, _ = _general_problem("band")
    csr = as_csr(A)
    rows = part.sets[1]
    free = int(np.setdiff1d(np.arange(csr.shape[1]), rows)[0])
    band = _scrambled(csr[rows, :], owned_col=int(rows[0]), free_col=free)
    assert not band.has_canonical_format
    before = (band.indptr.copy(), band.indices.copy(), band.data.copy())
    system = _build(band, rows)
    _assert_pinned(system.dep, band, rows)
    # The caller's band is left as it was handed in.
    for got, want in zip((band.indptr, band.indices, band.data), before):
        np.testing.assert_array_equal(got, want)


def test_dep_matches_lil_on_a_band_with_stored_zeros():
    A, _, part, _ = _general_problem("interleaved")
    csr = as_csr(A)
    rows = part.sets[2]
    band = csr[rows, :].copy()
    # Store explicit zeros both under J_l and outside it.
    owned = np.isin(band.indices, rows)
    band.data[np.flatnonzero(~owned)[::3]] = 0.0
    band.data[np.flatnonzero(owned)[1::7]] = 0.0
    assert (band.data == 0.0).sum() > 0
    system = _build(band, rows)
    _assert_pinned(system.dep, band, rows)
    assert (system.dep.data != 0.0).all()
