"""Lifecycle probes: how observers watch a Gamma machine.

Observers are not part of the paper's model (Figure 7), so no component
below :class:`~repro.gamma.machine.GammaMachine` knows who is watching.
Each holds the machine's one :class:`Probes` list and, at a lifecycle
moment, calls every hook subscribed to it::

    for hook in probes.on_message_sent:
        hook(src, dst, num_bytes)

A subscriber implements a method named after each moment it watches
(duck typing), so it pays only for those.  Hooks are bound once, when
the list is built.  They are bookkeeping only -- no events, resources or
randomness -- so an observed run is bit-identical to an unobserved one.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["MOMENTS", "NO_PROBES", "Probes"]

#: Every lifecycle moment, with the arguments its hooks receive.
MOMENTS = (
    "attach",                # (machine), once the machine is built
    "on_window_open",        # (now), warm-up over and statistics reset
    "on_window_close",       # (now), last measured query completed
    "on_run_finished",       # (now), the run's summary is built
    "on_query_issued",       # (query_id, query_type, now)
    "on_query_terminated",   # (query_id, now)
    "on_query_completed",    # (query_type, response_time), at a terminal
    "on_message_sent",       # (src, dst, num_bytes); dst -1: outside host
    "on_message_delivered",  # (dst)
    "on_request_served",     # (node_id, "select" | "probe")
    "on_disk_submit",        # (disk, num_pages, is_write)
    "on_disk_start",         # (disk, queue_wait), the arm starts serving
)


class Probes:
    """One tuple of bound hooks per lifecycle moment.

    :meth:`trace` also hands components a query's open span tree, from
    the first subscriber implementing ``lookup(query_id)``.
    """

    __slots__ = MOMENTS + ("_lookup",)

    def __init__(self, subscribers: Iterable[object] = ()):
        subscribers = tuple(subscribers)
        for moment in MOMENTS:
            setattr(self, moment, tuple(
                getattr(subscriber, moment) for subscriber in subscribers
                if hasattr(subscriber, moment)))
        self._lookup = next((subscriber.lookup for subscriber in subscribers
                             if hasattr(subscriber, "lookup")), None)

    def trace(self, query_id: int):
        """The open trace of *query_id*, or None when nobody traces."""
        lookup = self._lookup
        return lookup(query_id) if lookup is not None else None


#: The empty probe list of a component built outside any machine.
NO_PROBES = Probes()
