"""Weighting matrices ``E_lk`` (equations (3)-(4) and Section 4).

The fixed-point formalism combines the processors' solutions through
diagonal non-negative matrices ``E_lk`` with ``sum_k E_lk = I`` and
``(E_lk)_ii = 0`` for ``i`` outside ``J_k`` (a processor can only
contribute components it computes).  Choosing the family reproduces the
known algorithms (Section 4):

* ``E_lk = diag(1 on core_k)`` independent of ``l``
  -> **block Jacobi** (disjoint) and, with overlap, the *restricted*
  O'Leary-White combination (:class:`OwnershipWeighting`);
* ``E_lk = E_k`` with a partition of unity spread over the overlaps
  -> **O'Leary-White multisplitting** (:class:`AveragingWeighting`);
* ``E_ll = I on J_l`` and ``E_lk = E_k`` outside ``J_l``
  -> the **discrete multisubdomain Schwarz** method
  (:class:`SchwarzWeighting`).

A scheme is consumed two ways: the *solvers* ask for per-processor update
weights (how rank ``l`` folds an incoming piece ``x^k|J_k`` into its local
copy ``z^l``), and the *theory module* materialises the literal ``E_lk``
matrices to build the extended fixed-point operator and check conditions
(4).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.partition import GeneralPartition

__all__ = [
    "WeightingScheme",
    "BlockJacobiWeighting",
    "OwnershipWeighting",
    "AveragingWeighting",
    "SchwarzWeighting",
    "make_weighting",
    "validate_weighting",
]


def _read_only(vectors) -> tuple[np.ndarray, ...]:
    """Freeze per-producer weight vectors that every consumer shares."""
    out = []
    for w in vectors:
        w.setflags(write=False)
        out.append(w)
    return tuple(out)


class WeightingScheme(abc.ABC):
    """Family of weighting matrices ``E_lk`` over a partition."""

    def __init__(self, partition: GeneralPartition):
        self.partition = partition

    @abc.abstractmethod
    def weight_vector(self, l: int, k: int) -> np.ndarray:
        """Return ``diag(E_lk)`` restricted to ``J_k`` (length ``|J_k|``).

        ``l`` is the combining processor, ``k`` the producing one.
        """

    def matrix(self, l: int, k: int) -> np.ndarray:
        """Materialise ``diag(E_lk)`` as a full length-``n`` vector."""
        out = np.zeros(self.partition.n)
        out[self.partition.sets[k]] = self.weight_vector(l, k)
        return out

    def update_weights(self, l: int) -> dict[int, np.ndarray]:
        """Per-source update weights for processor ``l``'s local copy.

        Returns ``{k: w}`` for every ``k`` (including ``l`` itself) with a
        non-zero contribution; ``w`` has length ``|J_k|``.  The solver
        implements ``z^l = sum_k E_lk x^k`` as, for each arriving piece,
        ``z^l[J_k][w > 0] = contribution`` -- since the weights sum to one
        per component, applying each piece's weighted part and summing is
        exact when all pieces of a component arrive; components with a
        single contributor are simply overwritten.
        """
        out: dict[int, np.ndarray] = {}
        for k in range(self.partition.nprocs):
            w = self.weight_vector(l, k)
            if np.any(w != 0.0):
                out[k] = w
        return out


class OwnershipWeighting(WeightingScheme):
    """Every component taken from its *core owner* (independent of ``l``).

    With a disjoint partition this is exactly block Jacobi; with overlap it
    is the restricted (RAS-style) combination: processors still solve the
    extended systems, but only owner values circulate.  It is an
    O'Leary-White family (``E_lk = E_k`` with ``E_k`` the core indicator).
    """

    def __init__(self, partition: GeneralPartition):
        super().__init__(partition)
        owner = partition.owner_of()
        self._e = _read_only(
            (owner[J] == k).astype(float) for k, J in enumerate(partition.sets)
        )

    def weight_vector(self, l: int, k: int) -> np.ndarray:
        # E_lk = E_k: one shared read-only vector per producer k.
        return self._e[k]


class BlockJacobiWeighting(OwnershipWeighting):
    """Strict block Jacobi: requires a disjoint partition (``J_l = core_l``).

    Kept as a distinct class so tests can assert the Section-4 equivalence
    explicitly; construction fails when overlap is present.
    """

    def __init__(self, partition: GeneralPartition):
        for l, (J, C) in enumerate(zip(partition.sets, partition.core)):
            if J.size != C.size or not np.array_equal(J, C):
                raise ValueError(
                    f"BlockJacobiWeighting requires disjoint J_l (processor {l} overlaps)"
                )
        super().__init__(partition)


class AveragingWeighting(WeightingScheme):
    """O'Leary-White partition of unity: ``E_lk = E_k``, weights ``1/m_i``.

    Component ``i`` receives weight ``1/multiplicity(i)`` from every
    processor whose extended set contains it.  In overlap regions the
    combined iterate is the average of the overlapping solves -- the
    classical multisplitting combination of O'Leary & White [13].
    """

    def __init__(self, partition: GeneralPartition):
        super().__init__(partition)
        mult = partition.multiplicity().astype(float)
        self._e = _read_only(1.0 / mult[J] for J in partition.sets)

    def weight_vector(self, l: int, k: int) -> np.ndarray:
        # E_lk = E_k: one shared read-only vector per producer k.
        return self._e[k]


class SchwarzWeighting(WeightingScheme):
    """Discrete multisubdomain Schwarz (Section 4.3).

    ``(E_ll)_ii = 1`` for ``i in J_l`` (a processor trusts its own solve on
    the whole extended band, overlap included) and for ``i`` outside
    ``J_l`` the component comes from its core owner (``(E_lk)_ii =
    (E_k)_ii`` with ``E_k`` the ownership indicator).
    """

    def __init__(self, partition: GeneralPartition):
        super().__init__(partition)
        self._owner = partition.owner_of()

    def weight_vector(self, l: int, k: int) -> np.ndarray:
        J_k = self.partition.sets[k]
        J_l = self.partition.sets[l]
        in_l = np.isin(J_k, J_l)
        if k == l:
            return in_l.astype(float)  # all ones: J_l trusted wholesale
        w = np.zeros(J_k.size)
        outside = ~in_l
        w[outside & (self._owner[J_k] == k)] = 1.0
        return w


_SCHEMES = {
    "ownership": OwnershipWeighting,
    "block-jacobi": BlockJacobiWeighting,
    "averaging": AveragingWeighting,
    "schwarz": SchwarzWeighting,
}


def make_weighting(name: str, partition: GeneralPartition) -> WeightingScheme:
    """Instantiate a scheme by name (``ownership``/``block-jacobi``/
    ``averaging``/``schwarz``)."""
    try:
        cls = _SCHEMES[name]
    except KeyError:
        raise KeyError(f"unknown weighting {name!r}; known: {sorted(_SCHEMES)}") from None
    return cls(partition)


def validate_weighting(scheme: WeightingScheme, *, atol: float = 1e-12) -> None:
    """Check conditions (4): non-negativity, support, partition of unity.

    Raises
    ------
    ValueError
        With a description of the first violated condition.
    """
    part = scheme.partition
    n, L = part.n, part.nprocs
    for l in range(L):
        total = np.zeros(n)
        for k in range(L):
            w = scheme.weight_vector(l, k)
            if w.shape != (part.sets[k].size,):
                raise ValueError(f"E[{l},{k}]: wrong support size")
            if np.any(w < -atol):
                raise ValueError(f"E[{l},{k}]: negative weights")
            total[part.sets[k]] += w
        if not np.allclose(total, 1.0, atol=1e-9):
            bad = int(np.argmax(np.abs(total - 1.0)))
            raise ValueError(
                f"sum_k E[{l},k] != I at component {bad}: {total[bad]:.6f}"
            )
