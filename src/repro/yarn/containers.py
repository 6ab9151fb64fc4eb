"""Containers and resource vectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.topology import Host


@dataclass(frozen=True)
class Resources:
    """A (vcores, memory) resource vector, YARN-style."""

    vcores: int = 1
    memory_mb: int = 1024

    def __post_init__(self) -> None:
        if self.vcores < 0 or self.memory_mb < 0:
            raise ValueError(f"negative resources: {self}")

    def fits_in(self, other: "Resources") -> bool:
        return self.vcores <= other.vcores and self.memory_mb <= other.memory_mb

    def __add__(self, other: "Resources") -> "Resources":
        return Resources(self.vcores + other.vcores, self.memory_mb + other.memory_mb)

    def __sub__(self, other: "Resources") -> "Resources":
        return Resources(self.vcores - other.vcores, self.memory_mb - other.memory_mb)

    def dominant_share(self, total: "Resources") -> float:
        """The DRF dominant share of this usage against a cluster total."""
        shares = []
        if total.vcores > 0:
            shares.append(self.vcores / total.vcores)
        if total.memory_mb > 0:
            shares.append(self.memory_mb / total.memory_mb)
        return max(shares) if shares else 0.0

    @classmethod
    def zero(cls) -> "Resources":
        return cls(0, 0)

    @classmethod
    def times(cls, unit: "Resources", count: int) -> "Resources":
        return cls(unit.vcores * count, unit.memory_mb * count)


@dataclass
class Container:
    """A granted container on a specific host.

    ``container_id`` is assigned by the granting
    :class:`~repro.yarn.resourcemanager.ResourceManager`, which counts
    from 1 per cluster.
    """

    host: Host
    app_id: str
    resources: Resources
    container_id: int = 0

    def __hash__(self) -> int:
        return hash(self.container_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Container(#{self.container_id} on {self.host} for {self.app_id})"
