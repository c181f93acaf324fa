"""Simulating the declustering (load) process itself.

The paper evaluates steady-state query throughput, but each strategy
also has a *loading* cost the text describes:

* **range / hash**: one scan of the source relation; each tuple is
  routed by boundary lookup / hash and shipped to its processor, which
  writes its fragment sequentially and builds its indexes.
* **MAGIC** (§3.1): "the grid file algorithm scans the relation and
  constructs a K dimensional grid directory ... the relation is scanned
  a second time and tuples are assigned to processors" -- two full
  scans plus the directory construction CPU.
* **BERD** (§2): the primary range partition, after which "each
  fragment of R is scanned and an auxiliary relation is constructed",
  itself range-partitioned and B-tree indexed -- an extra distributed
  scan-and-redistribute pass over the auxiliary entries.

:func:`simulate_declustering` runs that pipeline on the machine model
(source reads, per-tuple partitioning CPU, network shipping, destination
writes, index-build CPU) and reports the load time -- the ablation
"what does MAGIC's flexibility cost at load time?".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.berd import BerdPlacement
from ..core.magic import MagicPlacement
from ..core.strategy import Placement
from ..des import Environment
from .catalog import AUX_ENTRY_BYTES
from .machine import GammaMachine
from .params import SimulationParameters

__all__ = ["LoadResult", "simulate_declustering"]

#: CPU instructions to route one tuple to its fragment during the scan
#: (boundary/hash/directory lookup plus the copy into an output buffer).
PARTITION_INSTRUCTIONS_PER_TUPLE = 300
#: CPU instructions per tuple inserted into the grid file while MAGIC
#: builds its directory (first scan).
GRIDFILE_INSERT_INSTRUCTIONS_PER_TUPLE = 500
#: CPU instructions to add one key to a B-tree being bulk-built.
INDEX_BUILD_INSTRUCTIONS_PER_KEY = 200


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one simulated declustering run."""

    strategy: str
    elapsed_seconds: float
    pages_read: int
    pages_written: int
    packets_shipped: int

    def __str__(self) -> str:
        return (f"{self.strategy}: load {self.elapsed_seconds:.1f}s "
                f"({self.pages_read} reads, {self.pages_written} writes, "
                f"{self.packets_shipped} packets)")


def _source_scan(machine: GammaMachine, pages: int, per_page_tuples: int,
                 per_tuple_instructions: int, ship_to=None):
    """One sequential scan at the source node (node 0), optionally
    shipping every page's tuples as one packet to a destination chosen
    by ``ship_to(page_index)``."""
    params = machine.params
    node = machine.nodes[0]
    start_cylinder = 0
    yield node.disk.submit(start_cylinder, 1, sequential=False)
    yield node.cpu.execute(params.read_page_instructions)
    for page in range(1, pages):
        yield node.disk.submit(start_cylinder, 1, sequential=True)
        yield node.cpu.execute(params.read_page_instructions)
    scan_instructions = pages * per_page_tuples * per_tuple_instructions
    if scan_instructions:
        yield node.cpu.execute(scan_instructions)
    if ship_to is not None:
        for page in range(pages):
            destination = ship_to(page)
            payload = per_page_tuples * params.tuple_bytes
            yield from machine.network.deliver(
                0, destination, min(payload, params.max_packet_bytes),
                ("load-batch", page))


def _site_writes(machine: GammaMachine, site: int, pages: int,
                 index_keys: int):
    """Destination-side work: write the fragment, build its indexes."""
    params = machine.params
    node = machine.nodes[site]
    if pages:
        yield node.disk.submit(0, pages, sequential=True, is_write=True)
        yield node.cpu.execute(pages * params.write_page_instructions)
    if index_keys:
        yield node.cpu.execute(index_keys * INDEX_BUILD_INSTRUCTIONS_PER_KEY)


def simulate_declustering(placement: Placement,
                          indexes,
                          params: SimulationParameters = None,
                          seed: int = 0) -> LoadResult:
    """Simulate physically declustering *placement*'s relation.

    Builds a fresh machine, runs the strategy-appropriate load pipeline
    and returns the elapsed (simulated) load time.  ``indexes`` is the
    same attribute->clustered mapping used for query runs (each site
    builds one index per entry).
    """
    machine = GammaMachine(placement, indexes=indexes, seed=seed,
                           **({"params": params} if params else {}))
    p = machine.params
    relation = placement.relation
    source_pages = math.ceil(relation.cardinality / p.tuples_per_page)

    # Strategy-specific extra passes.
    if isinstance(placement, MagicPlacement):
        scans = 2
        insert_cost = GRIDFILE_INSERT_INSTRUCTIONS_PER_TUPLE
        strategy_name = "magic"
    elif isinstance(placement, BerdPlacement):
        scans = 1
        insert_cost = 0
        strategy_name = "berd"
    else:
        scans = 1
        insert_cost = 0
        strategy_name = type(placement).__name__.replace(
            "Placement", "").lower()

    env = machine.env
    pages_written = 0
    packets = 0

    def pipeline():
        nonlocal pages_written, packets
        # First scan: MAGIC builds the grid directory; others skip it.
        if scans == 2:
            yield from _source_scan(machine, source_pages,
                                    p.tuples_per_page, insert_cost)
        # Distribution scan: route every page's tuples to a destination.
        rotation = [site for site in range(placement.num_sites)]

        def destination(page):
            return rotation[page % len(rotation)]

        yield from _source_scan(machine, source_pages, p.tuples_per_page,
                                PARTITION_INSTRUCTIONS_PER_TUPLE,
                                ship_to=destination)
        packets += source_pages

        # Destination-side writes + index builds, in parallel per site.
        site_jobs = []
        for site in range(placement.num_sites):
            fragment = placement.fragment(site)
            frag_pages = math.ceil(fragment.cardinality / p.tuples_per_page)
            keys = fragment.cardinality * max(len(indexes), 1)
            pages_written += frag_pages
            site_jobs.append(env.process(
                _site_writes(machine, site, frag_pages, keys)))

        # BERD's auxiliary pass: each site scans its fragment, ships its
        # auxiliary entries, and the receivers write + index them.
        if isinstance(placement, BerdPlacement):
            for attr in placement.auxiliaries:
                for site in range(placement.num_sites):
                    entries = placement.aux_cardinality(attr, site)
                    aux_pages = math.ceil(
                        entries * AUX_ENTRY_BYTES / p.page_bytes)
                    pages_written += aux_pages
                    site_jobs.append(env.process(
                        _aux_pass(machine, site, entries, aux_pages)))
                    packets += max(1, aux_pages)
        yield env.all_of(site_jobs)

    def _aux_pass(machine, site, entries, aux_pages):
        node = machine.nodes[site]
        # Scan the local fragment to extract (value, home) pairs.
        frag_pages = math.ceil(entries / machine.params.tuples_per_page)
        if frag_pages:
            yield node.disk.submit(0, frag_pages, sequential=True)
            yield node.cpu.execute(
                frag_pages * machine.params.read_page_instructions)
        # Ship to the (rotating) auxiliary owner and write there.
        target = (site + 1) % placement.num_sites
        for _ in range(max(1, aux_pages)):
            yield from machine.network.deliver(
                site, target, machine.params.max_packet_bytes,
                ("aux-batch", site))
        yield from _site_writes(machine, target, aux_pages, entries)

    done = env.process(pipeline())
    env.run(until=done)
    return LoadResult(strategy=strategy_name,
                      elapsed_seconds=env.now,
                      pages_read=source_pages * scans,
                      pages_written=pages_written,
                      packets_shipped=packets)
