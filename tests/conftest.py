"""Shared pytest fixtures and helpers for the test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from max_epidemic import MaxEpidemicCountsKernel, VectorizedMaxEpidemic

from repro.engine import registry
from repro.engine.ensemble_engine import flat_pair_indices, flat_planes
from repro.engine.protocol import InteractionContext, ProtocolEvent
from repro.engine.rng import RandomSource
from repro.protocols.epidemic import MaxEpidemic


@pytest.fixture
def max_epidemic_kernels():
    """Run the scalar ``MaxEpidemic`` on every engine through the test kernels.

    Registers ``max_epidemic``'s vectorised protocol and counts kernel for
    :class:`MaxEpidemic` and restores both registries afterwards.
    """
    registry.registered_protocols()  # load the default registrations first
    tables = (registry._REGISTRY, registry._COUNTS_REGISTRY)
    saved = [dict(table) for table in tables]
    registry.register_vectorized(MaxEpidemic, lambda p: VectorizedMaxEpidemic())
    registry.register_counts_kernel(MaxEpidemic, lambda p: MaxEpidemicCountsKernel())
    yield
    for table, entries in zip(tables, saved):
        table.clear()
        table.update(entries)
    registry.note_registry_change()


@pytest.fixture(autouse=True)
def _no_worker_processes_left_behind():
    """Every test reaps the worker processes it started, pooled ones included."""
    yield
    leftover = multiprocessing.active_children()
    assert not leftover, f"the test left worker processes behind: {leftover}"


@pytest.fixture
def rng() -> RandomSource:
    """Deterministic random source for tests."""
    return RandomSource.from_seed(12345)


class EventCollector:
    """Simple event sink used when driving protocols outside a simulator."""

    def __init__(self) -> None:
        self.events: list[ProtocolEvent] = []

    def __call__(self, event: ProtocolEvent) -> None:
        self.events.append(event)

    def kinds(self) -> list[str]:
        return [event.kind for event in self.events]


@pytest.fixture
def event_collector() -> EventCollector:
    return EventCollector()


@pytest.fixture
def make_ctx(rng: RandomSource):
    """Factory for InteractionContext objects bound to the test RNG."""

    def factory(sink=None, interaction: int = 0, initiator: int = 0, responder: int = 1):
        ctx = InteractionContext(rng, sink=sink)
        ctx.reset(interaction, initiator, responder)
        return ctx

    return factory


@pytest.fixture
def stacked_kernel():
    """Call a kernel's ``interact_ensemble`` the way the stacked engine does.

    Tests hold ``(rows, n)`` planes and ``(rows, batch)`` slot matrices; the
    kernel gets flat views of those planes and flat pair coordinates, built
    by the engine's own layout functions, so its writes land in the test's
    planes.
    """

    def apply(protocol, arrays, initiators, responders, rng) -> None:
        n = next(iter(arrays.values())).shape[1]
        flat_u, flat_v = flat_pair_indices(np.asarray(initiators), np.asarray(responders), n)
        protocol.interact_ensemble(flat_planes(arrays), flat_u, flat_v, rng)

    return apply
