"""Network interfaces and the global communication network (paper §5).

"The Network Interface manager enforces a FCFS protocol for access to
the global communications network.  The Network module currently models
a fully connected network."

A message send therefore costs:

* CPU handling on the sender (protocol instructions);
* the sender NIC held for the Table 2 send time (0.6 ms at 100 bytes,
  5.6 ms at 8 KB, linear in between);
* the receiver NIC held for the same duration (fully connected network:
  no shared-medium contention, only endpoint serialization);
* CPU handling on the receiver, after which the message lands in the
  receiver's mailbox.

The sender NIC is released before the receiver NIC is requested, so no
hold-and-wait cycle (and hence no deadlock) can occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..des import Environment, Resource, Store, UtilizationMonitor
from .cpu import Cpu
from .params import SimulationParameters
from .probes import NO_PROBES, Probes

__all__ = ["Network", "NetworkEndpoint"]


@dataclass(slots=True)
class NetworkEndpoint:
    """One node's attachment: its CPU, NIC and incoming mailbox."""

    node_id: int
    cpu: Cpu
    nic: Resource
    mailbox: Store
    #: Resource name traced queries book NIC wait/occupancy under.
    obs_label: str = "node.nic"


class Network:
    """Fully connected interconnect between endpoints."""

    __slots__ = ("env", "params", "_endpoints", "messages_sent",
                 "bytes_sent", "_sent", "_delivered", "_latency_seconds",
                 "_bandwidth")

    def __init__(self, env: Environment, params: SimulationParameters,
                 probes: Probes = NO_PROBES):
        self.env = env
        self.params = params
        self._endpoints: Dict[int, NetworkEndpoint] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self._sent = probes.on_message_sent
        self._delivered = probes.on_message_delivered
        # Per-message constants, computed once: both params methods cost
        # a call chain per message otherwise, and the divisor form keeps
        # occupancy bit-identical to network_occupancy_seconds().
        self._latency_seconds = params.network_latency_seconds()
        self._bandwidth = params.network_bandwidth_bytes_per_second()

    def attach(self, node_id: int, cpu: Cpu,
               obs_label: str = "node.nic") -> NetworkEndpoint:
        """Register a node and return its endpoint."""
        if node_id in self._endpoints:
            raise ValueError(f"node {node_id} already attached")
        endpoint = NetworkEndpoint(
            node_id=node_id, cpu=cpu,
            nic=Resource(self.env, capacity=1),
            mailbox=Store(self.env), obs_label=obs_label)
        UtilizationMonitor.attach(endpoint.nic, f"nic{node_id}")
        self._endpoints[node_id] = endpoint
        return endpoint

    def endpoint(self, node_id: int) -> NetworkEndpoint:
        try:
            return self._endpoints[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id} attached") from None

    def send(self, src: int, dst: int, num_bytes: int, message: Any) -> None:
        """Fire-and-forget: spawn the delivery process for one message."""
        self.env.process(self.deliver(src, dst, num_bytes, message))

    def deliver_external(self, src: int, num_bytes: int, span=None):
        """Process generator: ship a message out of the simulated machine.

        Result tuples stream to the submitting host (Gamma's VAX front
        end), which is outside the 32-processor system: the sender pays
        its CPU handling and NIC occupancy, but no receiver inside the
        machine is contended.
        """
        sender = self.endpoint(src)
        self.messages_sent += 1
        self.bytes_sent += num_bytes
        # The external host is outside the machine: the message is
        # delivered the moment it leaves (no receiver to lose it).
        for hook in self._sent:
            hook(src, -1, num_bytes)
        for hook in self._delivered:
            hook(-1)
        yield sender.cpu.execute(self.params.message_handling_instructions,
                                 span=span)
        yield sender.nic.hold(num_bytes / self._bandwidth, 0,
                              span and span.booking(sender.obs_label))
        yield self._latency_seconds

    def deliver(self, src: int, dst: int, num_bytes: int, message: Any,
                span=None):
        """Process generator: full delivery path of one message."""
        return self.multicast(src, ((dst, message),), num_bytes, span)

    def multicast(self, src: int, pairs, num_bytes: int, span=None):
        """Process generator: ship one message to each destination in turn.

        ``pairs`` is a sequence of ``(dst, message)``; each delivery
        runs to completion before the next starts.  This loop is the
        one delivery path: :meth:`deliver` is its single-pair case, so
        a P-site broadcast runs as one generator rather than P nested
        ones.
        """
        endpoints = self._endpoints
        sender = endpoints[src]
        handling = self.params.message_handling_instructions
        occupancy = num_bytes / self._bandwidth
        sent, delivered = self._sent, self._delivered
        for dst, message in pairs:
            receiver = endpoints[dst]
            self.messages_sent += 1
            self.bytes_sent += num_bytes
            for hook in sent:
                hook(src, dst, num_bytes)

            yield sender.cpu.execute(handling, span=span)
            if src != dst:
                yield sender.nic.hold(occupancy, 0,
                                      span and span.booking(sender.obs_label))
                # Fixed protocol latency: a pure delay, no resource held.
                yield self._latency_seconds
                yield receiver.nic.hold(
                    occupancy, 0, span and span.booking(receiver.obs_label))
                yield receiver.cpu.execute(handling, span=span)

            for hook in delivered:
                hook(dst)
            receiver.mailbox.put(message)

    def reset_stats(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
