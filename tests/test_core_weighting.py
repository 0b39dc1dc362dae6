"""Tests for the E_lk weighting families (repro.core.weighting)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AveragingWeighting,
    BlockJacobiWeighting,
    OwnershipWeighting,
    SchwarzWeighting,
    make_weighting,
    uniform_bands,
    validate_weighting,
)

ALL_SCHEMES = ["ownership", "averaging", "schwarz"]


def part(n=12, L=3, overlap=0):
    return uniform_bands(n, L, overlap=overlap).to_general()


class TestConditions4:
    """Every family must satisfy the paper's conditions (4)."""

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    @pytest.mark.parametrize("overlap", [0, 1, 3])
    def test_validate(self, name, overlap):
        scheme = make_weighting(name, part(overlap=overlap))
        validate_weighting(scheme)

    def test_block_jacobi_requires_disjoint(self):
        BlockJacobiWeighting(part(overlap=0))
        with pytest.raises(ValueError):
            BlockJacobiWeighting(part(overlap=1))

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(ALL_SCHEMES),
        st.integers(6, 40),
        st.integers(2, 5),
        st.integers(0, 4),
    )
    def test_property_partition_of_unity(self, name, n, L, overlap):
        if L > n:
            return
        scheme = make_weighting(name, part(n, L, overlap))
        validate_weighting(scheme)

    def test_support_condition(self):
        """(E_lk)_ii = 0 for i outside J_k."""
        scheme = make_weighting("averaging", part(overlap=2))
        g = scheme.partition
        for l in range(g.nprocs):
            for k in range(g.nprocs):
                full = scheme.matrix(l, k)
                outside = np.setdiff1d(np.arange(g.n), g.sets[k])
                assert np.all(full[outside] == 0.0)


class TestSectionFourEquivalences:
    def test_ownership_disjoint_is_block_jacobi(self):
        """With a disjoint partition, ownership == strict block Jacobi."""
        g = part(overlap=0)
        own = OwnershipWeighting(g)
        bj = BlockJacobiWeighting(g)
        for l in range(g.nprocs):
            for k in range(g.nprocs):
                np.testing.assert_array_equal(
                    own.weight_vector(l, k), bj.weight_vector(l, k)
                )

    def test_ownership_is_l_independent(self):
        """Ownership is an O'Leary-White family: E_lk = E_k."""
        g = part(overlap=2)
        own = OwnershipWeighting(g)
        for k in range(g.nprocs):
            w0 = own.weight_vector(0, k)
            for l in range(1, g.nprocs):
                np.testing.assert_array_equal(own.weight_vector(l, k), w0)

    def test_averaging_splits_overlaps(self):
        g = part(n=12, L=2, overlap=2)
        avg = AveragingWeighting(g)
        w = avg.weight_vector(0, 0)
        # components shared by both processors get weight 1/2
        assert set(np.unique(w)) == {0.5, 1.0}

    def test_schwarz_keeps_own_extended_band(self):
        g = part(n=12, L=2, overlap=2)
        sch = SchwarzWeighting(g)
        np.testing.assert_array_equal(sch.weight_vector(0, 0), np.ones(g.sets[0].size))
        # from the neighbour it takes only components outside J_0
        w01 = sch.weight_vector(0, 1)
        inside = np.isin(g.sets[1], g.sets[0])
        assert np.all(w01[inside] == 0.0)

    def test_schwarz_is_l_dependent(self):
        g = part(n=12, L=3, overlap=2)
        sch = SchwarzWeighting(g)
        w_self = sch.weight_vector(1, 1)
        w_other = sch.weight_vector(0, 1)
        assert not np.array_equal(w_self, w_other)

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            make_weighting("multiplicative", part())


class TestValidationErrors:
    def test_detects_broken_sum(self):
        g = part(overlap=1)

        class Broken(OwnershipWeighting):
            def weight_vector(self, l, k):
                return 0.5 * super().weight_vector(l, k)

        with pytest.raises(ValueError, match="sum"):
            validate_weighting(Broken(g))

    def test_detects_negative(self):
        g = part(overlap=0)

        class Negative(OwnershipWeighting):
            def weight_vector(self, l, k):
                w = super().weight_vector(l, k).copy()
                if k == 0 and w.size:
                    w[0] = -1.0
                    w[1] = 2.0 if w.size > 1 else w[0]
                return w

        with pytest.raises(ValueError):
            validate_weighting(Negative(g))


class TestSharedProducerVectors:
    """``E_lk = E_k`` schemes compute each vector once and share it."""

    @staticmethod
    def _fresh(name, g, k):
        J = g.sets[k]
        if name == "ownership":
            w = np.zeros(J.size)
            w[np.isin(J, g.core[k])] = 1.0
            return w
        return 1.0 / g.multiplicity().astype(float)[J]

    @pytest.mark.parametrize("name", ["ownership", "averaging"])
    @pytest.mark.parametrize("kind", ["band", "schwarz", "interleaved", "permuted"])
    def test_equal_to_fresh_and_read_only(self, name, kind):
        from test_runtime_conformance import _general_problem

        _, _, g, _ = _general_problem(kind)
        scheme = make_weighting(name, g)
        for l in range(g.nprocs):
            for k in range(g.nprocs):
                w = scheme.weight_vector(l, k)
                np.testing.assert_array_equal(w, self._fresh(name, g, k))
                assert w is scheme.weight_vector(0, k)
                with pytest.raises(ValueError, match="read-only"):
                    w[0] = 0.5
