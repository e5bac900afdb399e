"""Shared application plumbing: packets, network transfer, server base.

Every example application follows the paper's structure (§2.2, Figure 3):

* the **client** creates a request payload and attaches a CRC — the
  analogue of ``generate_kv_pair`` allocating with OrthrusNew;
* the **control path** on the server parses/transports the payload with
  byte-move and dispatch instructions executed on the application core —
  where a mercurial core can corrupt it *silently*;
* the **data path** (annotated closures) receives the payload through
  versioned memory; the first load verifies the transported CRC.

:class:`AppServer` gives the four applications a uniform driver interface:
``handle(op)``, ``state_digest()`` (a pure-Python ground-truth digest used
by fault-injection classification and the RBV baseline), and the set of
externalizing closures for safe mode.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.detection import DetectionEvent
from repro.machine.core import Core
from repro.machine.units import Unit
from repro.memory.checksum import crc16, deserialize, sealed_length, serialize
from repro.memory.pointer import OrthrusPtr
from repro.memory.version import INTACT
from repro.runtime.orthrus import OrthrusRuntime
from repro.workloads.base import Op


class Packet(NamedTuple):
    """A payload in flight: canonical bytes plus the sender's CRC.

    The CRC is computed by the *sender* when the payload is created and
    travels in the header; the payload bytes may be corrupted in transit
    by faulty control-path instructions, which is exactly what the
    receiver-side CRC probe detects (§3.4).  Immutable and hashable; a
    tuple, so building one costs no ``__init__``.  Only a hop a fault can
    reach builds one (:func:`hop`).
    """

    data: bytes
    checksum: int

    @staticmethod
    def wrap(value: Any) -> "Packet":
        data = serialize(value)
        return Packet(data, crc16(data))


def transfer(core: Core, packet: Packet, label: str) -> Packet:
    """Move a packet through one control-path hop on ``core``.

    The byte move executes as an ALU ``copy`` instruction inside a
    control-path scope, so a fault armed on that site corrupts the payload
    while the header CRC travels unchanged — the Figure 3 scenario.
    """
    with core.scope(label):
        moved = core.alu.copy(packet.data)
    return Packet(moved, packet.checksum)


def hop(core: Core, value: Any, label: str) -> Packet | None:
    """Send ``value`` through one control-path hop on ``core``: ``None``
    when it arrived *intact*, else the packet that arrived.

    It is intact when ``value`` is :func:`~repro.memory.checksum.sealed`,
    so decoding its bytes would give back ``value`` itself, type for
    type, and nothing rewrote those bytes.  The receiver then takes the
    sender's value instead of decoding.  Where no armed fault can match
    the hop's ``copy`` and the core records no sites, nothing can: the
    ``copy`` is issued for the payload's serialized length and no bytes,
    CRC or packet is built.  Elsewhere the bytes travel, and they are
    unrewritten when the ``copy`` returned the sender's own bytes object
    (a fired fault returns new bytes).
    """
    length = sealed_length(value)
    if length is not None and not (
        core.record_sites or core.can_fault(Unit.ALU, label, "copy")
    ):
        core.begin(label)  # nothing between can raise
        core.alu.copy_length(length)
        core.end()
        return None
    packet = Packet.wrap(value)
    arrived = transfer(core, packet, label)
    if arrived.data is packet.data and length is not None:
        return None
    return arrived


def unwrap(packet: Packet) -> tuple[Any, int]:
    """Decode a received packet into (value, transported CRC).

    Raises ``ValueError`` on undecodable (heavily corrupted) bytes — a
    fail-stop, not an SDC.
    """
    return deserialize(packet.data), packet.checksum


def deliver(runtime: OrthrusRuntime, core: Core, value: Any, label: str) -> OrthrusPtr:
    """Run ``value`` through the server-side control path on ``core`` and
    materialize it in versioned memory with the transported CRC (Figure 3)."""
    arrived = hop(core, value, label)
    if arrived is None:
        return runtime.receive(value, INTACT)
    return runtime.receive(*unwrap(arrived))


class AppServer:
    """Base class for the example application servers."""

    #: closures whose results are returned to clients (safe mode holds
    #: these until validated); subclasses override.
    externalizing: frozenset[str] = frozenset()

    def __init__(self, runtime: OrthrusRuntime):
        self.runtime = runtime

    # -- control-path helpers -------------------------------------------
    # A request's control path runs on one core, the one ``_handle`` looks
    # up (``OrthrusRuntime.current_core``) and hands to each helper.
    def receive(self, core: Core, value: Any, hop_label: str) -> OrthrusPtr:
        """A client request's payload, delivered (:func:`deliver`)."""
        return deliver(self.runtime, core, value, hop_label)

    def respond(self, core: Core, value: Any, label: str) -> Any:
        """Return a data-path result to the client through the control path
        on ``core``.

        The CRC is attached at the data/control boundary (where the value
        leaves versioned memory) and verified client-side after transport,
        so a response corrupted by a control-path fault is flagged as a
        checksum detection (§3.4's outbound direction).  An intact
        response is the value sent.
        """
        arrived = hop(core, value, label)
        if arrived is None:
            return value
        if crc16(arrived.data) != arrived.checksum:
            # The client verifies the CRC before decoding; a corrupted
            # response is rejected rather than consumed.
            self.runtime._on_detection(
                DetectionEvent(
                    kind="checksum",
                    closure=label,
                    seq=-1,
                    time=self.runtime.clock.now(),
                    detail=f"response CRC mismatch on {label}",
                    app_core=core.core_id,
                )
            )
            return None
        return unwrap(arrived)[0]

    # -- driver interface -------------------------------------------------
    def handle(self, op: Op) -> Any:
        """Process one client operation end to end.

        Activates this server's own runtime for the duration, so multiple
        servers (e.g. an RBV primary and replica with independent heaps
        and machines) can interleave requests safely.
        """
        with self.runtime:
            return self._handle(op)

    def _handle(self, op: Op) -> Any:
        raise NotImplementedError

    def state_digest(self) -> int:
        """Pure-Python digest of all live user data.

        Computed *outside* the simulated machine (never corrupted), so the
        fault-injection classifier can compare end states against a golden
        run, and the RBV baseline can compare primary vs replica state.
        """
        raise NotImplementedError
