"""Pinned telemetry: exact output of the router pipeline, as sha256 digests.

The hypothesis differential tests compare the activity-tracked loop with
the naive one, but both run the same per-router pipeline, so neither pins
what that pipeline computes.  These digests do: each scenario runs a few
epochs and hashes the ``repr`` of every :class:`EpochTelemetry` (integer
counters, averages and the energy floats, bit for bit).  A change to
arbitration order, VC allocation, credit timing or energy accumulation
order shows up here as a digest mismatch.

Every scenario must produce the same digest whichever way it is run: on
the activity-tracked cycle engine, the naive full-scan loop and the event
engine.

The digests were recorded before the router state was flattened into
integer tables; update them only for a change that is meant to alter
simulated behaviour, and say so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.noc.network import NoCSimulator, SimulatorConfig
from repro.noc.routing import SelectionPolicy
from repro.traffic.generator import TrafficGenerator

EPOCHS = 4
EPOCH_CYCLES = 150


def _simulator(rate: float, pattern: str = "uniform", seed: int = 7, **config) -> NoCSimulator:
    simulator = NoCSimulator(SimulatorConfig(width=4, seed=seed, **config))
    simulator.traffic = TrafficGenerator.from_names(
        simulator.topology, pattern, rate, packet_size=simulator.config.packet_size, seed=seed
    )
    return simulator


def _per_node_dvfs(simulator: NoCSimulator, epoch: int) -> None:
    for node in simulator.topology.nodes():
        simulator.set_dvfs_level(node, (node + epoch) % 4)


def _fail_then_repair(simulator: NoCSimulator, epoch: int) -> None:
    if epoch == 1:
        simulator.fail_link(5, 6)
        simulator.fail_link(9, 5)
    elif epoch == 3:
        simulator.repair_link(5, 6)
        simulator.repair_link(9, 5)


def _shrink_then_grow_vcs(simulator: NoCSimulator, epoch: int) -> None:
    simulator.set_enabled_vcs({1: 1, 2: 3, 3: 4}.get(epoch, simulator.enabled_vcs))


#: name -> (simulator factory, per-epoch reconfiguration hook or None).
SCENARIOS = {
    "mesh-2vc-saturated": (lambda: _simulator(0.4, num_vcs=2), None),
    "mesh-4vc-saturated": (lambda: _simulator(0.45, num_vcs=4, buffer_depth=3), None),
    "adaptive-most-credits": (
        lambda: _simulator(
            0.3, "transpose", routing="minimal_adaptive",
            selection=SelectionPolicy.MOST_CREDITS,
        ),
        None,
    ),
    "adaptive-random": (
        lambda: _simulator(
            0.3, "transpose", routing="minimal_adaptive",
            selection=SelectionPolicy.RANDOM,
        ),
        None,
    ),
    "torus": (lambda: _simulator(0.3, torus=True, num_vcs=3), None),
    "per-node-dvfs": (lambda: _simulator(0.2, "hotspot"), _per_node_dvfs),
    "fail-repair-link": (
        lambda: _simulator(0.2, routing="west_first"), _fail_then_repair
    ),
    "enabled-vcs": (lambda: _simulator(0.35, num_vcs=4), _shrink_then_grow_vcs),
}

EXPECTED = {
    "mesh-2vc-saturated": (
        "9c314507d61bc705a6df440ca12d0989"
        "78f982d3177f98ded570fb8f0301aa48"
    ),
    "mesh-4vc-saturated": (
        "ee816add2d2c2fe639d09086d6ecb037"
        "620b19af9c73f419a52263b92038103c"
    ),
    "adaptive-most-credits": (
        "a430f00a5298baf1b5b9ec0d7fb4eebb"
        "2f4af09ef6eae677ee532c42adef21d5"
    ),
    "adaptive-random": (
        "a52fa70e5db38bd23c8e4058e89cb0af"
        "848c2bd8a340f02bd6dce7bc507046d5"
    ),
    "torus": (
        "1537e2c92ac597296e686620a0091693"
        "3e5aba24ce861a91f30ad97cc658cfc0"
    ),
    "per-node-dvfs": (
        "322c1d199a07b6d1bb297d302d8cce4b"
        "5199e5f08ec64c891506fb8f197ace20"
    ),
    "fail-repair-link": (
        "449f0490834b8fcd1165a493379d52bb"
        "14aa81eaf18606c26ae67e8d99f5b312"
    ),
    "enabled-vcs": (
        "25b6d090e549466b1e3fc59fa2c0388c"
        "3f3e0331b8c493254d42af715dfbd900"
    ),
}

RUN_MODES = ("tracked", "naive", "event")


def telemetry_digest(name: str, mode: str = "tracked") -> str:
    factory, reconfigure = SCENARIOS[name]
    simulator = factory()
    if mode == "naive":
        simulator.activity_tracking = False
    elif mode == "event":
        simulator.set_engine("event")
    digest = hashlib.sha256()
    for epoch in range(EPOCHS):
        if reconfigure is not None:
            reconfigure(simulator, epoch)
        digest.update(repr(simulator.run_epoch(EPOCH_CYCLES)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("mode", RUN_MODES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_telemetry_matches_pinned_digest(name, mode):
    assert telemetry_digest(name, mode) == EXPECTED[name]
