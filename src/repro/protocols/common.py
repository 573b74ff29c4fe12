"""Shared protocol machinery: sequence numbers, TLV vocabulary, metrics.

MANET protocols use circular (wrapping) sequence numbers to order
information freshness.  The comparison below is the signed-difference rule
of RFC 3561 section 6.1 (also used by DYMO and OLSR's ANSN handling): ``a``
is newer than ``b`` iff ``(a - b) mod 2^16`` interpreted as a signed 16-bit
value is positive.

This module also hosts the shared *message observability* helper used by
every protocol's receive path (OLSR / DYMO / AODV / MPR all dispatch
through the System CF's wire decoder): :class:`MessageMetrics` — cached
per-message-type frame/byte counters bound to an observability registry
(always on; one dict lookup + int add per message).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, Dict

SEQNUM_BITS = 16
SEQNUM_MOD = 1 << SEQNUM_BITS
_HALF = 1 << (SEQNUM_BITS - 1)


def seq_increment(value: int, step: int = 1) -> int:
    """Advance a circular sequence number (skipping nothing; pure mod)."""
    return (value + step) % SEQNUM_MOD


def seq_diff(a: int, b: int) -> int:
    """Signed circular difference ``a - b`` in [-2^15, 2^15)."""
    delta = (a - b) % SEQNUM_MOD
    if delta >= _HALF:
        delta -= SEQNUM_MOD
    return delta


def seq_newer(a: int, b: int) -> bool:
    """Whether sequence number ``a`` is strictly fresher than ``b``."""
    return seq_diff(a, b) > 0


def seq_newer_or_equal(a: int, b: int) -> bool:
    return seq_diff(a, b) >= 0


class MessageMetrics:
    """Per-message-type counters cached for the wire hot path.

    Instances hold one counter pair per message type so the steady-state
    cost of :meth:`note` is a local dict hit plus two integer adds —
    cheap enough to stay enabled even during the Table 1 micro benchmark.
    """

    __slots__ = ("_registry", "_labels", "_cache")

    def __init__(self, registry, **labels: Any) -> None:
        self._registry = registry
        self._labels = labels
        self._cache: Dict[Any, tuple] = {}

    def note(self, msg_type: Any, size: int = 0) -> None:
        cached = self._cache.get(msg_type)
        if cached is None:
            type_name = getattr(msg_type, "name", str(msg_type))
            cached = (
                self._registry.counter(
                    "proto.messages_in", msg_type=type_name, **self._labels
                ),
                self._registry.counter(
                    "proto.message_bytes_in", msg_type=type_name, **self._labels
                ),
            )
            self._cache[msg_type] = cached
        frames, octets = cached
        frames.inc()
        if size:
            octets.inc(size)


class TlvType(IntEnum):
    """TLV type numbers shared across the protocols in this repository."""

    # Generic
    VALIDITY_TIME = 1
    INTERVAL_TIME = 2
    # HELLO / MPR
    LINK_STATUS = 10       # value: LinkCode, applies to an address range
    WILLINGNESS = 11
    # TC / OLSR
    ANSN = 20
    RESIDUAL_POWER = 21    # power-aware variant dissemination
    LINK_COST = 22         # power-aware link costs in HELLOs
    # DYMO
    RE_TYPE = 30           # 0 = RREQ, 1 = RREP
    TARGET_SEQNUM = 31
    ADDR_SEQNUM = 32       # index-scoped: seqnum of an accumulated address
    ADDR_HOPCOUNT = 33
    UNSUPPORTED = 39       # echoed back in UERRs
    # AODV
    RREQ_ID = 40
    ORIG_SEQNUM = 41
    DEST_SEQNUM = 42
    HOPCOUNT = 43
    LIFETIME = 44
    # Critical-extension space: receivers that do not understand a TLV in
    # this range must reject the message with a UERR (DYMO behaviour).
    CRITICAL_BASE = 128


class LinkCode(IntEnum):
    """Link codes carried in HELLO address blocks (RFC 3626 flavour)."""

    ASYM = 1   # heard, not confirmed bidirectional
    SYM = 2    # bidirectional
    MPR = 3    # symmetric and selected as a multipoint relay
    LOST = 4   # recently broken link


class Willingness(IntEnum):
    """A node's willingness to carry traffic for others (RFC 3626)."""

    NEVER = 0
    LOW = 1
    DEFAULT = 3
    HIGH = 6
    ALWAYS = 7
