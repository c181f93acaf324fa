"""One processor node of the simulated machine (Figure 7).

"Each node in the multiprocessor is composed of a Disk Manager, an
Operator Manager, and a Network Interface manager."  The node bundles
its CPU, disk, network endpoint and operator manager.
"""

from __future__ import annotations

from ..des import Environment
from .buffer import BufferPool
from .catalog import SystemCatalog
from .cpu import Cpu
from .disk import Disk
from .network import Network, NetworkEndpoint
from .operator import OperatorManager
from .params import SimulationParameters
from .probes import NO_PROBES, Probes

__all__ = ["OperatorNode"]


class OperatorNode:
    """CPU + disk + NIC + operator manager of one processor."""

    def __init__(self, env: Environment, node_id: int,
                 params: SimulationParameters, network: Network,
                 catalog: SystemCatalog, seed: int = 0,
                 probes: Probes = NO_PROBES, faults=None):
        self.node_id = node_id
        self.cpu = Cpu(env, params, name=f"cpu{node_id}")
        self.disk = Disk(env, params, self.cpu, seed=seed,
                         name=f"disk{node_id}", probes=probes)
        self.buffer_pool = (BufferPool(params.buffer_pool_pages)
                            if params.buffer_pool_pages else None)
        self.endpoint: NetworkEndpoint = network.attach(node_id, self.cpu)
        self.operator_manager = OperatorManager(
            env, node_id, params, self.cpu, self.disk, self.endpoint,
            network, catalog, seed=seed + 1,
            buffer_pool=self.buffer_pool, probes=probes, faults=faults)

    def reset_stats(self) -> None:
        self.cpu.reset_stats()
        self.disk.reset_stats()

    def cpu_utilization(self, now: float) -> float:
        return self.cpu.monitor.utilization(now)

    def disk_busy_seconds(self) -> float:
        return self.disk.busy_seconds
