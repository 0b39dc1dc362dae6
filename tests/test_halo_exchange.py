"""Halo-only exchange: each block is sent only ``z^l[H_l]``.

The drivers assemble every block's halo vector from gather maps
(:class:`repro.core.distributed.HaloGather`) instead of building a
full-length local copy ``z^l = sum_k E_lk x^k`` and shipping it whole.
The full-length combine is kept here as a test-only reference: the
drivers must reproduce its iterates bit for bit -- same ``x``, same
``history``, same iteration count -- on every partition shape, weighting
and batch width; and the distributed backends must move exactly the halo
bytes, nothing more.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import chaotic_iterate, make_weighting, multisplitting_iterate
from repro.core.local import build_local_systems
from repro.core.stopping import StoppingCriterion
from repro.direct import get_solver
from repro.linalg.norms import max_norm, residual_norm
from repro.runtime import InlineExecutor, ProcessExecutor, SocketExecutor
from repro.runtime.shm import SharedVectorPlane
from test_runtime_conformance import PARTITION_KINDS, _general_problem

WEIGHTINGS = ("ownership", "averaging", "schwarz")


def _problem(kind, weighting, k):
    A, b, part, _ = _general_problem(kind)
    if k > 1:
        b = np.random.default_rng(11).standard_normal((b.size, k))
    return A, b, part, make_weighting(weighting, part)


def _full_vector_copy(part, weights_l, pieces, shape):
    """The full-length combine ``z^l = sum_k E_lk x^k`` (the reference)."""
    z = np.zeros(shape)
    batched = len(shape) == 2
    for k, w in weights_l.items():
        wk = w[:, None] if batched else w
        z[part.sets[k]] += wk * pieces[k]
    return z


def _combine(part, pieces, shape):
    x = np.empty(shape)
    for l, (J, C) in enumerate(zip(part.sets, part.core)):
        x[C] = pieces[l][np.isin(J, C)]
    return x


def _full_vector_barrier(A, b, part, weighting, stopping):
    """Barrier rounds over full-length local copies; returns (x, history, its)."""
    systems = build_local_systems(A, b, part.sets, get_solver("scipy"))
    L = part.nprocs
    weights = [weighting.update_weights(l) for l in range(L)]
    Z = [np.zeros(b.shape) for _ in range(L)]
    state = stopping.new_state()
    x_prev = np.zeros(b.shape)
    history: list[float] = []
    it = 0
    for it in range(1, stopping.max_iterations + 1):
        pieces = [s.solve_with(Z[l][s.halo]) for l, s in enumerate(systems)]
        Z = [_full_vector_copy(part, weights[l], pieces, b.shape) for l in range(L)]
        x_est = _combine(part, pieces, b.shape)
        value = max_norm(x_est - x_prev)
        history.append(value)
        x_prev = x_est
        if state.observe(value):
            break
    return x_prev, history, it


def _full_vector_chaotic(A, b, part, weighting, stopping, *, seed,
                         max_delay=3, update_probability=0.7):
    """The seeded chaotic schedule over full-length local copies."""
    rng = np.random.default_rng(seed)
    systems = build_local_systems(A, b, part.sets, get_solver("scipy"))
    L = part.nprocs
    weights = [weighting.update_weights(l) for l in range(L)]
    pieces = [np.zeros(b.shape)[J] for J in part.sets]
    piece_history = [[p.copy() for p in pieces]]
    starve_guard = max(1, int(np.ceil(1 / update_probability))) * 4
    since_update = [0] * L
    state = stopping.new_state()
    x_prev = np.zeros(b.shape)
    history: list[float] = []
    updated_since_bad: set[int] = set()
    norm_A = float(np.max(np.asarray(np.abs(A).sum(axis=1))))
    residual_tolerance = stopping.tolerance * max(1.0, norm_A)
    it = 0
    for it in range(1, stopping.max_iterations + 1):
        new_pieces = [p.copy() for p in pieces]
        updated_now = []
        for l in range(L):
            since_update[l] += 1
            if rng.random() > update_probability and since_update[l] < starve_guard:
                continue
            since_update[l] = 0
            updated_now.append(l)
            stale = {}
            for k in weights[l]:
                lag = int(rng.integers(0, max_delay + 1)) if k != l else 0
                lag = min(lag, len(piece_history) - 1)
                stale[k] = piece_history[-1 - lag][k]
            z = _full_vector_copy(part, weights[l], stale, b.shape)
            new_pieces[l] = systems[l].solve_with(z[systems[l].halo])
        pieces = new_pieces
        piece_history.append([p.copy() for p in pieces])
        if len(piece_history) > max_delay + 1:
            piece_history.pop(0)
        x_est = _combine(part, pieces, b.shape)
        value = max_norm(x_est - x_prev)
        history.append(value)
        x_prev = x_est
        quiet = state.observe(value)
        if state.streak == 0:
            updated_since_bad.clear()
        else:
            updated_since_bad.update(updated_now)
        if quiet and len(updated_since_bad) == L:
            if residual_norm(A, x_est, b) <= residual_tolerance:
                break
            state.reset()
            updated_since_bad.clear()
    return x_prev, history, it


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("kind", PARTITION_KINDS)
class TestBitIdenticalToFullVectorCopies:
    def test_barrier_and_pipelined(self, kind, weighting, k):
        A, b, part, scheme = _problem(kind, weighting, k)
        stopping = StoppingCriterion(tolerance=1e-10, max_iterations=40)
        x, history, its = _full_vector_barrier(A, b, part, scheme, stopping)
        for dispatch in ("barrier", "pipelined"):
            res = multisplitting_iterate(
                A, b, part, scheme, get_solver("scipy"), stopping=stopping,
                executor=InlineExecutor(), dispatch=dispatch,
            )
            np.testing.assert_array_equal(res.x, x)
            assert res.history == history
            assert res.iterations == its

    def test_seeded_chaotic(self, kind, weighting, k):
        A, b, part, scheme = _problem(kind, weighting, k)
        stopping = StoppingCriterion(
            tolerance=1e-10, max_iterations=40, consecutive=3
        )
        x, history, its = _full_vector_chaotic(A, b, part, scheme, stopping, seed=4)
        res = chaotic_iterate(
            A, b, part, scheme, get_solver("scipy"), stopping=stopping, seed=4,
            executor=InlineExecutor(),
        )
        np.testing.assert_array_equal(res.x, x)
        assert res.history == history
        assert res.iterations == its


@pytest.fixture(scope="module")
def fleets():
    out = {
        "processes": ProcessExecutor(max_workers=2),
        "sockets": SocketExecutor(workers=2),
    }
    yield out
    for ex in out.values():
        ex.close()


class TestHaloExactWireBytes:
    """The distributed backends move exactly ``8 k sum_l |H_l|`` per round."""

    ROUNDS = 5

    def _run(self, ex, kind, k):
        A, b, part, scheme = _problem(kind, "ownership", k)
        res = multisplitting_iterate(
            A, b, part, scheme, get_solver("scipy"),
            stopping=StoppingCriterion(tolerance=1e-300, max_iterations=self.ROUNDS),
            executor=ex,
        )
        assert res.iterations == self.ROUNDS
        systems = build_local_systems(A, b, part.sets, get_solver("scipy"))
        halo = sum(s.halo.size for s in systems)
        rows = sum(s.size for s in systems)
        return res.wire, halo, rows

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("kind", PARTITION_KINDS)
    def test_process_planes(self, fleets, kind, k):
        wire, halo, rows = self._run(fleets["processes"], kind, k)
        assert wire["vector_bytes_sent"] == self.ROUNDS * 8 * k * halo
        assert wire["vector_bytes_received"] == self.ROUNDS * 8 * k * rows

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("kind", PARTITION_KINDS)
    def test_socket_frames(self, fleets, kind, k):
        wire, halo, rows = self._run(fleets["sockets"], kind, k)
        # Frame payloads also carry each message's pickled head, so the
        # exact count is on the out-of-band vector bytes: the halos sent
        # plus the pieces received.
        assert wire["copies_avoided"] == self.ROUNDS * 8 * k * (halo + rows)
        assert wire["vector_bytes_sent"] >= self.ROUNDS * 8 * k * halo

    def test_socket_rejects_a_full_length_copy(self, fleets):
        A, b, part, _ = _problem("band", "ownership", 1)
        ex = fleets["sockets"]
        ex.attach(A, b, part.sets, get_solver("scipy"))
        try:
            with pytest.raises(ValueError, match="halo vector"):
                ex.solve_blocks([(0, np.zeros(b.shape))])
        finally:
            ex.detach()


def test_plane_shape_mismatch_leaves_close_working():
    """A rejected write pins no view of the mapping, so close() succeeds."""
    plane = SharedVectorPlane([(3,), (0,), (2, 2)])
    try:
        with pytest.raises(ValueError, match="slot 0 holds"):
            plane.write(0, np.zeros(4))
        plane.write(2, np.ones((2, 2)))
        assert plane.slot(1).shape == (0,)
        np.testing.assert_array_equal(plane.read(2), np.ones((2, 2)))
    finally:
        plane.close()
        plane.unlink()
