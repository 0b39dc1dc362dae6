"""Model of pipelined dispatch gating vs the receive ``BufferPool``.

The pipelined driver (``repro.core.sequential._pipelined_rounds``) lets
a block run up to ``window`` rounds ahead of the fold monitor, while the
socket runtime receives each round's piece *in place* into a per-block
rotation of ``depth`` pooled buffers (``repro.runtime.wire.BufferPool``):
round ``r + depth``'s receive reuses round ``r``'s memory.  The protocol
is sound only while every piece that can still be *read* -- folded by
the monitor or gathered into a gated dispatch's halo vector -- is backed
by a buffer not yet recycled.  (A dispatch reads its gates' pieces only:
the halo gather has no term for any other block.)

The model: one io coroutine per block receiving pieces into the slot
rotation (two-phase, so a read during ``recv_into`` sees a torn buffer),
and a driver coroutine folding rounds in order and dispatching the next
round of any block whose self-gate is in and whose round is within the
window.  Every read checks that the slot still holds exactly the round
it expects; blocks are gated only on themselves (a sparse pattern), so
a fast block can lap a slow one -- the stress case.

With ``window < depth`` (the shipped 3 vs 4) exploration is clean.
``window=4, depth=4`` is the known-bug fixture: with the slow block's
round-1 piece still unfolded (``monitor == 1``), the fast block's round
``1 + window`` dispatch is allowed, its receive recycles round 1's
buffer, and the monitor folds a torn piece -- exactly why
``_PIPELINE_WINDOW`` must stay strictly below the pool depth, and what
the construction-time assert this PR adds makes impossible to
reintroduce silently.
"""

from __future__ import annotations

from repro.check.engine import Model, SimThread, cond_schedule, schedule

__all__ = ["PipelineModel"]


class PipelineModel(Model):
    """Window-gated rounds over a depth-limited receive buffer rotation."""

    name = "pipeline"

    def __init__(
        self,
        *,
        blocks: int = 2,
        rounds: int = 5,
        window: int = 3,
        depth: int = 4,
    ):
        self.nblocks = blocks
        self.rounds = rounds
        self.window = window
        self.depth = depth
        #: slot contents: ("piece", r) complete, ("recv", r) mid-receive.
        self.slots = {l: [None] * depth for l in range(blocks)}
        self.arrived: set[tuple[int, int]] = set()
        self.submitted = [0] * blocks  # last dispatched round per block
        self.monitor = 1  # next round to fold (the real driver's counter)
        self.finished = False
        self.torn: list[str] = []

    # -- protocol reads (every one checks its buffer is intact) ------

    def _read(self, l: int, r: int, what: str) -> None:
        if r == 0:
            return  # the initial value is not pool-backed
        content = self.slots[l][(r - 1) % self.depth]
        if content != ("piece", r):
            self.torn.append(
                f"{what} read block {l} round {r} but its buffer holds "
                f"{content} (recycled after only {self.depth} takes)"
            )

    # -- threads -----------------------------------------------------

    def _io(self, l: int) -> SimThread:
        # The worker solve + in-place receive path for one block.  The
        # self-gate serialises rounds per block, so receives are FIFO.
        r = 0
        while r < self.rounds:
            yield from cond_schedule(
                lambda: self.submitted[l] > r or self.finished
            )
            if self.finished:
                return
            r += 1
            yield from schedule()  # solve + frame in flight
            slot = (r - 1) % self.depth
            self.slots[l][slot] = ("recv", r)  # recv_into begins
            yield from schedule()
            self.slots[l][slot] = ("piece", r)  # frame complete
            self.arrived.add((l, r))

    def _foldable(self) -> bool:
        return self.monitor <= self.rounds and all(
            (l, self.monitor) in self.arrived for l in range(self.nblocks)
        )

    def _dispatchable(self, m: int) -> bool:
        r_next = self.submitted[m] + 1
        return (
            r_next <= self.rounds
            and r_next <= self.monitor + self.window
            and (m, r_next - 1) in self.arrived
        )

    def _driver(self) -> SimThread:
        for l in range(self.nblocks):  # round 1 dispatches on z0
            self.submitted[l] = 1
        yield from schedule()
        while self.monitor <= self.rounds:
            yield from cond_schedule(
                lambda: self._foldable()
                or any(self._dispatchable(m) for m in range(self.nblocks))
            )
            while self._foldable():
                r = self.monitor
                for l in range(self.nblocks):
                    # The combine reads each piece's memory over time:
                    # the slot must still be intact *after* the trap.
                    yield from schedule()
                    self._read(l, r, "fold")
                self.monitor += 1
                yield from schedule()
            for m in range(self.nblocks):
                if not self._dispatchable(m):
                    continue
                r_next = self.submitted[m] + 1
                # Halo gather for the dispatch: it reads gated pieces
                # only.  Each block's one gate here is itself, which
                # stands in for a dependency's piece; read across a trap.
                yield from schedule()
                self._read(m, r_next - 1, "gate")
                self.submitted[m] = r_next
                yield from schedule()
        self.finished = True

    def threads(self):
        out = [("driver", self._driver)]
        for l in range(self.nblocks):
            out.append((f"io{l}", lambda l=l: self._io(l)))
        return out

    def invariants(self):
        return [
            ("reads-see-intact-buffers", lambda: not self.torn),
        ]
