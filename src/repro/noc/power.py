"""Event-based NoC energy model.

The model follows the structure of Orion/DSENT-style router power models but
with parametric per-event energies: every buffer write, buffer read, crossbar
traversal and link traversal contributes a fixed energy at nominal voltage,
scaled by ``(V / V_nom)^2`` at the active operating point; leakage accrues
every cycle per router, scaled by ``V / V_nom``.

Absolute joules are not calibrated against silicon — only the *relative*
energy between DVFS levels and between controllers matters for the
reproduction (see DESIGN.md, substitutions table).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.dvfs import OperatingPoint


@dataclass(frozen=True)
class PowerParameters:
    """Per-event energies in picojoules at the nominal voltage."""

    nominal_voltage: float = 1.0
    buffer_write_pj: float = 1.2
    buffer_read_pj: float = 1.0
    crossbar_pj: float = 1.5
    link_pj: float = 2.0
    # Leakage is sized so that it dominates at low utilisation (the regime
    # where voltage scaling pays off), mirroring sub-65nm router power
    # breakdowns reported by Orion/DSENT-style models.
    router_leakage_pj_per_cycle: float = 1.2
    link_leakage_pj_per_cycle: float = 0.3

    def __post_init__(self) -> None:
        values = (
            self.nominal_voltage,
            self.buffer_write_pj,
            self.buffer_read_pj,
            self.crossbar_pj,
            self.link_pj,
            self.router_leakage_pj_per_cycle,
            self.link_leakage_pj_per_cycle,
        )
        if any(v < 0 for v in values):
            raise ValueError("power parameters must be non-negative")
        if self.nominal_voltage <= 0:
            raise ValueError("nominal voltage must be positive")


@dataclass
class EnergyBreakdown:
    """Accumulated energy, split by component, in picojoules."""

    buffer_pj: float = 0.0
    crossbar_pj: float = 0.0
    link_pj: float = 0.0
    leakage_pj: float = 0.0

    @property
    def dynamic_pj(self) -> float:
        return self.buffer_pj + self.crossbar_pj + self.link_pj

    @property
    def total_pj(self) -> float:
        return self.dynamic_pj + self.leakage_pj

    def copy(self) -> "EnergyBreakdown":
        return EnergyBreakdown(
            buffer_pj=self.buffer_pj,
            crossbar_pj=self.crossbar_pj,
            link_pj=self.link_pj,
            leakage_pj=self.leakage_pj,
        )

    def __sub__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            buffer_pj=self.buffer_pj - other.buffer_pj,
            crossbar_pj=self.crossbar_pj - other.crossbar_pj,
            link_pj=self.link_pj - other.link_pj,
            leakage_pj=self.leakage_pj - other.leakage_pj,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "buffer_pj": self.buffer_pj,
            "crossbar_pj": self.crossbar_pj,
            "link_pj": self.link_pj,
            "leakage_pj": self.leakage_pj,
            "dynamic_pj": self.dynamic_pj,
            "total_pj": self.total_pj,
        }


@dataclass
class PowerModel:
    """Accumulates energy for dynamic events and leakage."""

    parameters: PowerParameters = field(default_factory=PowerParameters)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)

    # -- scaling helpers ---------------------------------------------------

    def _dynamic_scale(self, point: OperatingPoint) -> float:
        return (point.voltage / self.parameters.nominal_voltage) ** 2

    def _static_scale(self, point: OperatingPoint) -> float:
        return point.voltage / self.parameters.nominal_voltage

    # -- dynamic events ------------------------------------------------------

    def record_buffer_write(self, point: OperatingPoint, flits: int = 1) -> None:
        self.energy.buffer_pj += (
            self.parameters.buffer_write_pj * flits * self._dynamic_scale(point)
        )

    def record_buffer_read(self, point: OperatingPoint, flits: int = 1) -> None:
        self.energy.buffer_pj += (
            self.parameters.buffer_read_pj * flits * self._dynamic_scale(point)
        )

    def record_crossbar_traversal(self, point: OperatingPoint, flits: int = 1) -> None:
        self.energy.crossbar_pj += (
            self.parameters.crossbar_pj * flits * self._dynamic_scale(point)
        )

    def record_link_traversal(self, point: OperatingPoint, flits: int = 1) -> None:
        self.energy.link_pj += self.parameters.link_pj * flits * self._dynamic_scale(point)

    def flit_energies(self, point: OperatingPoint) -> tuple[float, float, float, float]:
        """Per-flit ``(buffer read, crossbar, link, buffer write)`` energies
        at ``point``: the exact floats one ``record_*`` call adds.

        The router pipeline adds these precomputed values on its hot path
        (refreshed on every operating-point change) instead of calling the
        ``record_*`` methods per flit; the accumulation stays bit-identical.
        """
        scale = self._dynamic_scale(point)
        parameters = self.parameters
        return (
            parameters.buffer_read_pj * scale,
            parameters.crossbar_pj * scale,
            parameters.link_pj * scale,
            parameters.buffer_write_pj * scale,
        )

    # -- leakage ---------------------------------------------------------------

    def router_leakage_increment(self, point: OperatingPoint, routers: int = 1) -> float:
        """The leakage energy ``routers`` routers accrue in one cycle at ``point``.

        Exposed so callers that batch leakage accounting (the simulator's
        idle-cycle fast path) can pre-compute the exact per-cycle increments
        and stay bit-identical to per-cycle :meth:`record_router_leakage` calls.
        """
        return (
            self.parameters.router_leakage_pj_per_cycle
            * routers
            * self._static_scale(point)
        )

    def link_leakage_increment(self, point: OperatingPoint, links: int = 1) -> float:
        """The leakage energy ``links`` links accrue in one cycle at ``point``."""
        return (
            self.parameters.link_leakage_pj_per_cycle * links * self._static_scale(point)
        )

    def record_router_leakage(self, point: OperatingPoint, routers: int = 1) -> None:
        self.energy.leakage_pj += self.router_leakage_increment(point, routers)

    def record_link_leakage(self, point: OperatingPoint, links: int = 1) -> None:
        self.energy.leakage_pj += self.link_leakage_increment(point, links)

    def accrue_leakage_increments(
        self, increments: list[float], cycles: int = 1
    ) -> None:
        """Add each increment once per cycle, in order.

        Replaying a cached increment schedule keeps the floating-point
        accumulation order identical to ``cycles`` passes of per-router
        :meth:`record_router_leakage` / :meth:`record_link_leakage` calls,
        so the result is bit-identical — summing ``cycles * increment`` up
        front would not be.  The simulator's activity-tracked engine routes
        both its busy-cycle overheads and its idle-span batching through
        this method.
        """
        leakage = self.energy.leakage_pj
        for _ in range(cycles):
            for increment in increments:
                leakage += increment
        self.energy.leakage_pj = leakage

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> EnergyBreakdown:
        """A copy of the accumulated energy so callers can compute deltas."""
        return self.energy.copy()

    def reset(self) -> None:
        self.energy = EnergyBreakdown()
