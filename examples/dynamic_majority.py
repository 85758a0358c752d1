#!/usr/bin/env python3
"""Composing the size estimate with a payload protocol: dynamic majority.

The paper's purpose for dynamic size counting is to drive *non-uniform*
payload protocols — protocols whose phase clocks need an estimate of
log n — in populations whose size changes.  This example wires the
phase-clocked majority payload to the dynamic size counting clock via
:class:`repro.core.ComposedProtocol`:

* 60 % of the agents start with opinion A, 40 % with opinion B,
* the clock component estimates log2(n) and ticks once per round,
* every tick advances the payload's phase (alternating cancellation and
  doubling), and
* halfway through the run the adversary removes a quarter of the
  population, chosen uniformly at random (a resize schedule of one
  ``(time, target)`` pair), which the composition survives.

Run it with::

    python examples/dynamic_majority.py
"""

from __future__ import annotations

import math
from collections import Counter

from repro.core import ComposedProtocol, DynamicSizeCounting
from repro.engine import RandomSource, Simulator
from repro.protocols import PhasedMajority, PhasedMajorityState


def opinion_counts(composed: ComposedProtocol, simulator: Simulator) -> Counter:
    return Counter(composed.output(state) for state in simulator.states())


def main() -> None:
    n = 400
    share_a = 0.6
    parallel_time = 500

    rng = RandomSource.from_seed(123)
    payload = PhasedMajority(max_exponent=20)
    composed = ComposedProtocol(payload, counting=DynamicSizeCounting())

    payload_states = []
    for index in range(n):
        opinion = 1 if index < int(share_a * n) else -1
        payload_states.append(PhasedMajorityState(opinion=opinion))
    population = composed.make_initial_population(n, rng, payload_states=payload_states)

    schedule = [(parallel_time // 2, n - n // 4)]
    simulator = Simulator(composed, population, rng=rng, resize_schedule=schedule)

    print(f"Population of {n} agents: {share_a:.0%} opinion A (+1), {1-share_a:.0%} opinion B (-1)")
    print(f"An adversary removes {n // 4} random agents at t={parallel_time // 2}.")
    print()
    print(f"{'time':>6}  {'agents':>6}  {'A':>5}  {'B':>5}  {'neutral':>7}  {'median est.':>11}")

    for checkpoint in range(0, parallel_time, 50):
        simulator.run(50)
        counts = opinion_counts(composed, simulator)
        estimates = sorted(composed.estimate(state) for state in simulator.states())
        median_estimate = estimates[len(estimates) // 2]
        print(
            f"{simulator.parallel_time:>6}  {simulator.population.size:>6}  "
            f"{counts.get(1, 0):>5}  {counts.get(-1, 0):>5}  {counts.get(0, 0):>7}  "
            f"{median_estimate:>11.1f}"
        )

    counts = opinion_counts(composed, simulator)
    a, b = counts.get(1, 0), counts.get(-1, 0)
    print()
    winner = "A" if a > b else "B"
    print(
        f"Signed opinion balance at the end: A={a}, B={b}, neutral={counts.get(0, 0)} "
        f"-> current leader: {winner} (initial majority was A)"
    )
    print(
        "Size estimate tracked log2(n): final median "
        f"{sorted(composed.estimate(s) for s in simulator.states())[simulator.population.size // 2]:.1f} "
        f"vs log2({simulator.population.size}) = {math.log2(simulator.population.size):.1f}"
    )


if __name__ == "__main__":
    main()
