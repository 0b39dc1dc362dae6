"""The band prune of ``build_local_system`` pinned to its LIL construction.

``LocalSystem.dep`` is ``A[J_l, :]`` without its ``J_l`` columns,
compacted onto its halo ``H_l`` (``core.local.prune_band``).  The
reference is the plain LIL construction (``tolil``, assign zero to the
``J_l`` columns, ``tocsr``, ``eliminate_zeros``) restricted to the
columns it stores; the two must agree array for array -- ``indptr``,
``indices`` and ``data`` -- so every ``dep @ z[H_l]`` sums the same terms
in the same order and iterates stay bit-identical.  The halo itself must
equal the pattern-level derivation
(:meth:`~repro.core.partition.GeneralPartition.boundary_columns`) the
drivers build their gather maps from.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import uniform_bands
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


def _assert_pinned(system, band: sp.csr_matrix, rows: np.ndarray):
    ref = _lil_dep(band, rows)
    halo = np.unique(ref.indices)
    np.testing.assert_array_equal(system.halo, halo)
    # The reference restricted to its halo columns.
    ref = ref[:, halo]
    dep = system.dep
    assert dep.shape == ref.shape == (rows.size, halo.size)
    np.testing.assert_array_equal(dep.indptr, ref.indptr)
    np.testing.assert_array_equal(dep.indices, ref.indices)
    np.testing.assert_array_equal(dep.data, ref.data)
    # No halo column lies in J_l.
    assert not np.isin(system.halo, rows).any()


def _embed(csr: sp.csr_matrix, band: sp.csr_matrix, rows: np.ndarray):
    """``csr`` with its ``rows`` replaced by ``band``'s, stored as given."""
    where = {int(r): i for i, r in enumerate(rows)}
    data, indices, indptr = [], [], [0]
    for r in range(csr.shape[0]):
        src, i = (band, where[r]) if r in where else (csr, r)
        lo, hi = src.indptr[i], src.indptr[i + 1]
        indices += list(src.indices[lo:hi])
        data += list(src.data[lo:hi])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices), np.array(indptr)), shape=csr.shape
    )


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
        _assert_pinned(system, csr[rows, :], rows)
        assert system.rhs_flops == 2.0 * system.dep.nnz
        np.testing.assert_array_equal(part.boundary_columns(A)[l], system.halo)


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
    _assert_pinned(system, band, rows)
    # The caller's band is left as it was handed in.
    for got, want in zip((band.indptr, band.indices, band.data), before):
        np.testing.assert_array_equal(got, want)
    # The pattern-level halo agrees on the same non-canonical rows.
    scrambled = _embed(csr, band, rows)
    assert not scrambled.has_canonical_format
    np.testing.assert_array_equal(part.boundary_columns(scrambled)[1], system.halo)


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
    _assert_pinned(system, band, rows)
    assert (system.dep.data != 0.0).all()
    np.testing.assert_array_equal(
        part.boundary_columns(_embed(csr, band, rows))[2], system.halo
    )


def test_boundary_columns_sum_duplicates_before_dropping_zeros():
    """A stored +1.5/-1.5 pair is a zero coupling, not a halo column."""
    n = 12
    A = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)],
                 offsets=(-1, 0, 1), format="csr")
    coo = A.tocoo()
    rows = np.concatenate([coo.row, [2, 2]])
    cols = np.concatenate([coo.col, [7, 7]])
    vals = np.concatenate([coo.data, [1.5, -1.5]])
    # Built straight from the arrays: the duplicate pair stays stored.
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    scrambled = sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))
    assert not scrambled.has_canonical_format
    part = uniform_bands(n, 2).to_general()
    J = part.sets[0]
    system = _build(scrambled[J, :], J)
    np.testing.assert_array_equal(system.halo, [6])
    for l, halo in enumerate(part.boundary_columns(scrambled)):
        np.testing.assert_array_equal(halo, [6] if l == 0 else [5])
