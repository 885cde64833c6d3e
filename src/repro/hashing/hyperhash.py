"""Hyperdimensional consistent hashing (Heddes et al., DAC 2022).

Section 5.1 of the paper adapts the circular-hypervector construction from
this system: a dynamic hash table that distributes requests across a
changing population of servers.  We reimplement it as a substrate — both
because the paper's main contribution generalises its algorithm, and
because it is an excellent integration test of circular-hypervectors'
defining property (neighbourhood structure with no endpoints).

Design (following the consistent-hashing blueprint of Karger et al.):

* a circular-hypervector set of ``m`` *slots* represents positions on the
  hash ring;
* each server owns a slot (its hypervector is the slot's);
* a request key is hashed to a deterministic pseudo-random angle and
  encoded with the slot set's circular embedding;
* the request is routed to the server whose hypervector is most similar
  to the request's — i.e. the nearest server on the ring, found with HDC
  similarity search instead of sorted-ring bisection.

The consistent-hashing contract, verified by the tests:

* **balance** — with randomly placed servers, keys spread across servers;
* **monotonicity / minimal disruption** — adding or removing one server
  only remaps keys adjacent to it on the ring (expected fraction
  ``≈ 1/(servers ± 1)``), never keys between two unrelated servers.
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable, Iterable

import numpy as np

from .._rng import SeedLike
from ..basis.circular import CircularBasis
from ..exceptions import EmptyModelError, InvalidParameterError
from ..hdc.memory import ItemMemory

__all__ = ["HyperdimensionalHashRing", "key_to_angle"]

TWO_PI = 2.0 * math.pi


def key_to_angle(key: Hashable) -> float:
    """Hash any key to a deterministic pseudo-uniform angle in ``[0, 2π)``.

    Uses BLAKE2b (stable across processes and platforms, unlike Python's
    salted ``hash``) on the key's ``repr``; the first 8 bytes become a
    uniform fraction of the circle.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    fraction = int.from_bytes(digest, "big") / 2**64
    return fraction * TWO_PI


class HyperdimensionalHashRing:
    """Consistent hashing over a circular-hypervector ring.

    Parameters
    ----------
    slots:
        Number of ring positions (the resolution of the ring).  More
        slots = finer-grained server placement.
    dim:
        Hyperspace dimensionality.
    seed:
        Randomness for the circular slot set.

    Example
    -------
    >>> ring = HyperdimensionalHashRing(slots=64, dim=4096, seed=0)
    >>> for name in ("alpha", "beta", "gamma"):
    ...     _ = ring.add_server(name)
    >>> server = ring.route("user-42")      # deterministic routing
    >>> server in {"alpha", "beta", "gamma"}
    True
    """

    def __init__(self, slots: int = 256, dim: int = 10_000, seed: SeedLike = None) -> None:
        if slots < 2:
            raise InvalidParameterError(f"need at least 2 slots, got {slots}")
        self._basis = CircularBasis(slots, dim, seed=seed)
        self._memory = ItemMemory(dim)
        self._server_slots: dict[Hashable, int] = {}

    @property
    def slots(self) -> int:
        """Number of ring positions."""
        return len(self._basis)

    @property
    def servers(self) -> list[Hashable]:
        """Currently registered servers."""
        return self._memory.keys()

    def _slot_of_angle(self, angle: float) -> int:
        return int(round(angle / TWO_PI * self.slots)) % self.slots

    def slot_of(self, server: Hashable) -> int:
        """Ring slot owned by ``server`` (raises ``KeyError`` if absent)."""
        return self._server_slots[server]

    def add_server(self, server: Hashable) -> int:
        """Register a server at the slot its name hashes to.

        If that slot is occupied, linear-probe to the next free slot so
        every server owns a distinct position.  Returns the slot index.
        """
        if server in self._server_slots:
            raise InvalidParameterError(f"server {server!r} already registered")
        if len(self._server_slots) >= self.slots:
            raise InvalidParameterError("ring is full; increase slots")
        slot = self._slot_of_angle(key_to_angle(server))
        taken = set(self._server_slots.values())
        while slot in taken:
            slot = (slot + 1) % self.slots
        self._server_slots[server] = slot
        self._memory.add(server, self._basis[slot])
        return slot

    def remove_server(self, server: Hashable) -> None:
        """Deregister a server (its keys fall to the ring neighbours)."""
        del self._server_slots[server]
        self._memory.remove(server)

    def route(self, key: Hashable) -> Hashable:
        """Route a request key to its server (nearest on the ring).

        The key's angle is encoded as the nearest slot's circular
        hypervector; the winning server is the one with the most similar
        hypervector.  Because circular-hypervector distance grows with
        ring distance, this is exactly "walk to the nearest server".
        """
        if not self._server_slots:
            raise EmptyModelError("no servers registered")
        slot = self._slot_of_angle(key_to_angle(key))
        return self._memory.query(self._basis[slot])

    def route_many(self, keys: Iterable[Hashable]) -> list[Hashable]:
        """Vectorised :meth:`route` for many keys at once."""
        keys = list(keys)
        if not self._server_slots:
            raise EmptyModelError("no servers registered")
        if not keys:
            return []
        slots = np.array([self._slot_of_angle(key_to_angle(k)) for k in keys])
        return self._memory.query_batch(self._basis[slots])

    def load_distribution(self, keys: Iterable[Hashable]) -> dict[Hashable, int]:
        """Number of keys routed to each server (all servers included)."""
        counts: dict[Hashable, int] = {server: 0 for server in self.servers}
        for server in self.route_many(keys):
            counts[server] += 1
        return counts
