"""All machine parameters, in one calibrated place.

Times are **microseconds**, rates are **bytes per microsecond** (= MB/s),
sizes are bytes.  The SP numbers are calibrated so that the simulated
primitives land on the paper's measurements:

===============================  ==========  =================
quantity                          paper       calibration anchor
===============================  ==========  =================
raw 1-word round trip             47 us       §2.3
SP AM 1-word round trip           51.0 us     §2.3 / Table 3
per extra 32-bit word             +0.5 us     §2.3
MPL round trip                    88 us       §2.3 / Table 3
AM asymptotic bandwidth           34.3 MB/s   Table 3
MPL asymptotic bandwidth          34.6 MB/s   Table 3
am_request_1..4 call cost         7.7-8.2 us  Table 2
am_reply_1..4 call cost           4.0-4.4 us  Table 2
empty poll                        1.3 us      §2.5
per received message in poll      1.8 us      §2.5
chunk send overhead               172 us      §2.2
MicroChannel access               ~1 us       §2.1
switch hardware latency           ~0.5 us     §1.2
switch link bandwidth             ~40 MB/s    §1.2
MicroChannel peak DMA             80 MB/s     §1.2
===============================  ==========  =================

Garbled-OCR reconstructions are documented in DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

# ---------------------------------------------------------------------------
# Packet geometry (§2.2): a FIFO entry is 256 bytes -> 32 B header + 224 B
# payload; a bulk-transfer chunk is 36 packets = 8064 payload bytes.
# ---------------------------------------------------------------------------
PACKET_SLOT_BYTES = 256
PACKET_HEADER_BYTES = 32
PACKET_PAYLOAD_BYTES = PACKET_SLOT_BYTES - PACKET_HEADER_BYTES  # 224
CHUNK_PACKETS = 36
CHUNK_BYTES = CHUNK_PACKETS * PACKET_PAYLOAD_BYTES  # 8064


@dataclass(frozen=True)
class HostParams:
    """Costs paid by the Power2 host CPU."""

    #: model 390 "thin" vs model 590 "wide" node
    kind: str = "thin"
    #: data-cache line size: 64 B thin, 256 B wide (§1.2)
    cache_line: int = 64
    #: cost to flush one cache line to DRAM (memory bus write-back)
    flush_line: float = 0.18
    #: one programmed-I/O access across the MicroChannel (§2.1: ~1 us)
    mc_pio: float = 1.0
    #: memory-to-memory copy rate for host copies (buffered MPI protocol);
    #: Power2 streaming copy ~150 MB/s
    copy_rate: float = 150.0  # MB/s
    #: fixed cost of a host memcpy call (loop setup, cache misses)
    copy_fixed: float = 0.35
    #: checking the receive-queue tail pointer when nothing has arrived
    poll_empty: float = 1.3
    #: pulling one packet out of the receive queue and dispatching it
    poll_per_packet: float = 1.8
    #: sustained double-precision flop cost (for charged compute phases)
    flop_us: float = 1.0 / 40.0  # ~40 Mflops sustained out of 66 peak
    #: sustained integer/pointer op cost
    intop_us: float = 1.0 / 50.0


@dataclass(frozen=True)
class AdapterParams:
    """The TB2 adapter, modelled as a pipeline of (occupancy, latency) stages.

    *Occupancy* is the stage's per-packet throughput cost: the stage can
    admit the next packet ``occ`` after the previous one.  *Latency* is the
    packet's transit time through the stage.  Bandwidth is set by the
    largest occupancy; small-message latency by the sum of latencies.
    """

    #: send FIFO entries (OCR "18" -> 128)
    send_fifo_entries: int = 128
    #: receive FIFO entries *per active processing node* (§2.1)
    recv_fifo_entries_per_node: int = 64
    #: delay before the i860's scan loop notices a nonzero length slot
    length_scan: float = 0.5
    #: MicroChannel DMA rate (80 MB/s peak, §1.2)
    mc_dma_rate: float = 80.0
    #: i860 TX firmware: fixed per-packet latency beyond the DMA itself
    i860_tx_latency: float = 9.0
    #: i860 TX firmware: per-packet occupancy (pipelined with the wire)
    i860_tx_occupancy: float = 3.0
    #: i860 RX firmware: fixed per-packet latency beyond the DMA
    i860_rx_latency: float = 5.8
    #: i860 RX firmware: per-packet occupancy
    i860_rx_occupancy: float = 3.0
    #: MSMU inter-packet gap on the wire (tunes r_inf to 34.3 MB/s)
    msmu_gap: float = 0.13
    #: consumed receive-FIFO slots the host returns per pop (§2.1)
    lazy_pop_batch: int = 16


@dataclass(frozen=True)
class SwitchParams:
    """The high-performance switch (§1.2)."""

    #: hardware latency per traversal (OCR "00ns" -> 500 ns)
    latency: float = 0.5
    #: link bandwidth, bytes/us (=MB/s)
    link_rate: float = 40.0


@dataclass(frozen=True)
class GenericNICParams:
    """LogP-style NIC for the Table 4 peer machines.

    ``o_send``/``o_recv`` are per-message host overheads charged by the
    software layer; ``latency`` is the one-way network latency; ``rate``
    the link bandwidth in MB/s.  These machines are modelled reliable (the
    paper's AM ports on them do not need the SP's NACK machinery for the
    benchmarks shown).
    """

    o_send: float
    o_recv: float
    latency: float
    rate: float


@dataclass(frozen=True)
class MachineParams:
    """A complete machine description."""

    name: str
    nodes_kind: str  # "sp" or "generic"
    host: HostParams = field(default_factory=HostParams)
    adapter: Optional[AdapterParams] = None
    switch: Optional[SwitchParams] = None
    nic: Optional[GenericNICParams] = None

    def __post_init__(self) -> None:
        if self.nodes_kind == "sp" and (self.adapter is None or self.switch is None):
            raise ValueError("SP machine needs adapter and switch params")
        if self.nodes_kind == "generic" and self.nic is None:
            raise ValueError("generic machine needs NIC params")


# ---------------------------------------------------------------------------
# The SP itself
# ---------------------------------------------------------------------------

def sp_thin_params() -> MachineParams:
    """A model-390 thin-node SP — the configuration of §2 and Figs 8/9."""
    return MachineParams(
        name="IBM SP (thin nodes)",
        nodes_kind="sp",
        host=HostParams(kind="thin", cache_line=64),
        adapter=AdapterParams(),
        switch=SwitchParams(),
    )


def sp_wide_params() -> MachineParams:
    """A model-590 wide-node SP (Figs 10/11).

    Wide nodes have 256-byte cache lines and a faster memory system (fewer
    flushes per packet, faster copies) but the paper shows MPI-AM's
    small-message latency slightly *higher* on wide nodes (MPI-AM was
    developed on thin ones, §4.3): PIO stores post slightly slower through
    the wide node's deeper store path.
    """
    return MachineParams(
        name="IBM SP (wide nodes)",
        nodes_kind="sp",
        host=HostParams(
            kind="wide",
            cache_line=256,
            flush_line=0.42,
            copy_rate=200.0,
            mc_pio=1.15,
        ),
        adapter=AdapterParams(),
        switch=SwitchParams(),
    )


# ---------------------------------------------------------------------------
# Table 4 peer machines.  (CPU columns: CM-5 = 33 MHz Sparc-2; Meiko and
# U-Net cluster = 40-60 MHz Sparc-20; flop/intop costs calibrated so the
# Split-C compute phases land near Table 5.)
# ---------------------------------------------------------------------------

def cm5_params() -> MachineParams:
    """TMC CM-5: 3 us overhead, 12 us round trip, 10 MB/s."""
    return MachineParams(
        name="TMC CM-5",
        nodes_kind="generic",
        host=HostParams(
            kind="cm5",
            poll_empty=0.6,
            poll_per_packet=0.9,
            copy_rate=25.0,
            flop_us=1.0 / 5.0,
            intop_us=1.0 / 14.0,
        ),
        nic=GenericNICParams(o_send=1.6, o_recv=1.4, latency=2.3, rate=10.0),
    )


def meiko_params() -> MachineParams:
    """Meiko CS-2: 11 us overhead, 25 us round trip, 39 MB/s."""
    return MachineParams(
        name="Meiko CS-2",
        nodes_kind="generic",
        host=HostParams(
            kind="meiko",
            poll_empty=0.8,
            poll_per_packet=1.2,
            copy_rate=40.0,
            flop_us=1.0 / 10.0,
            intop_us=1.0 / 25.0,
        ),
        nic=GenericNICParams(o_send=5.5, o_recv=4.7, latency=1.5, rate=39.0),
    )


def unet_params() -> MachineParams:
    """U-Net over ATM, SS20 cluster: 3.5 us overhead, 66 us RTT, 14 MB/s."""
    return MachineParams(
        name="U-Net ATM cluster",
        nodes_kind="generic",
        host=HostParams(
            kind="unet",
            poll_empty=0.7,
            poll_per_packet=1.0,
            copy_rate=38.0,
            flop_us=1.0 / 10.0,
            intop_us=1.0 / 25.0,
        ),
        nic=GenericNICParams(o_send=1.9, o_recv=1.6, latency=29.5, rate=14.0),
    )


MACHINES: Dict[str, "MachineParams"] = {}


def _register_defaults() -> None:
    MACHINES["sp-thin"] = sp_thin_params()
    MACHINES["sp-wide"] = sp_wide_params()
    MACHINES["cm5"] = cm5_params()
    MACHINES["meiko"] = meiko_params()
    MACHINES["unet"] = unet_params()


_register_defaults()


def machine_params(name: str) -> MachineParams:
    """Look up a registered machine configuration by name."""
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; known: {sorted(MACHINES)}"
        ) from None


def with_overrides(base: MachineParams, **adapter_overrides) -> MachineParams:
    """Copy a machine config with adapter fields replaced (ablation helper)."""
    if base.adapter is None:
        raise ValueError("machine has no adapter to override")
    return replace(base, adapter=replace(base.adapter, **adapter_overrides))
