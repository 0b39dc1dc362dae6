"""Shared test helpers."""

from __future__ import annotations

import pytest

from repro.core.partition import halo_columns


def _halo_round(A, sets, z):
    """Every block's halo vector ``z[H_l]`` of one full-length local copy.

    Executors take, per block, only the entries of the local copy its
    coupling block reads; tests that drive an executor directly write a
    full-length ``z`` and hand each block its halo of it.
    """
    return [z[halo] for halo in halo_columns(A, sets)]


@pytest.fixture
def halo_round():
    """:func:`_halo_round`: ``halo_round(A, sets, z) -> [z[H_0], z[H_1], ...]``."""
    return _halo_round
