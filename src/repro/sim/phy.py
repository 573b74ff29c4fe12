"""Medium models: how one transmission becomes per-receiver verdicts.

The default radio — matrix delivery with per-link scalar loss — is
*idealised*: every frame goes on the air the instant it is sent, and
concurrent transmissions never interact.  That is the right default (it
is fast and it is what every committed golden trace and benchmark
baseline pins), but link-availability studies show protocol rankings
flip once the PHY parameter set is taken seriously.  So the verdict is a
**strategy** over the medium's one delivery pipeline
(:meth:`~repro.sim.medium.WirelessMedium._transmit` runs the prologue,
the model decides who the radio reaches, and every survivor goes through
:meth:`~repro.sim.medium.WirelessMedium._schedule_delivery`):

* :class:`MediumModel` — the strategy interface the medium calls once
  per transmission;
* :class:`IdealModel` — the idealised radio: an independent loss roll
  per link, survivors batched per latency;
* :class:`InterferenceModel` — SINR-style degradation plus a CSMA
  contention approximation:

  - **carrier sense / deferral** — a sender that can hear an in-flight
    transmission defers by a bounded exponential backoff
    (``slot_time * randint(1, min(cw_min << attempt, cw_max))``) up to
    ``max_deferrals`` times, then transmits regardless (broadcast 802.11
    has no retries; capture after the budget keeps protocols live);
  - **interference** — while a frame is on the air (``preamble +
    8*size/bitrate`` simulated seconds) it raises the noise floor for
    every receiver that can hear the sender.  Each concurrent audible
    transmission multiplies a receiver's survival probability by
    ``(1 - interference_loss)``;
  - **modulation-dependent loss** — the profile's ``loss_curve`` maps
    degraded link quality to extra loss (OFDM rates collapse early,
    DSSS and the 802.11p half-clocked PHY degrade gracefully).

* :data:`PROFILES` — named 802.11b / 802.11g / 802.11p parameter sets,
  selectable from the scenario CLI (``--phy``) and the campaign matrix.

Determinism: the ideal model rolls from the medium's RNG; every draw the
interference model makes (backoff widths, per-receiver loss rolls) comes
from one ``random.Random(seed)`` it owns — never from the medium's —
both in sorted-receiver order at transmit time.  Same seed + same
profile ⇒ identical traces, twice over.

Composition with fault injection: the PHY verdict runs **first**; the
fault injector's tamper hook (Gilbert-Elliott windows mutate
``LinkProperties.loss``, which the PHY folds into its noise floor, and
corruption/duplication/reordering act on frames) applies only to frames
the PHY let through.  See ``docs/phy.md`` for the full composition order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.medium import Frame, WirelessMedium


@dataclass(frozen=True)
class LinkProfile:
    """One named 802.11 parameter set.

    Times are simulated seconds, ``bitrate`` is bits per simulated
    second.  ``loss_curve`` is a descending sequence of
    ``(quality_threshold, extra_loss)`` pairs: the first entry whose
    threshold is at or above the link's quality supplies the
    modulation-dependent loss (quality 1.0 pays only ``base_loss``).
    """

    name: str
    bitrate: float
    slot_time: float
    cw_min: int
    cw_max: int
    max_deferrals: int
    preamble: float
    base_loss: float
    interference_loss: float
    loss_curve: Tuple[Tuple[float, float], ...] = ()

    def airtime(self, size: int) -> float:
        """Seconds one frame of ``size`` bytes occupies the channel."""
        return self.preamble + 8.0 * max(size, 1) / self.bitrate

    def quality_loss(self, quality: float) -> float:
        """Modulation-dependent loss for a link of the given quality."""
        if quality >= 1.0:
            return self.base_loss
        extra = 0.0
        for threshold, loss in self.loss_curve:
            if quality <= threshold:
                extra = loss
        return min(1.0, self.base_loss + extra)


#: The shipped link profiles.  Slot/contention-window values follow the
#: standards; the loss parameters are calibrated so that the three
#: profiles produce measurably distinct delivery ratios under the fault
#: battery (gated by ``benchmarks/baseline/BENCH_phy.json``), with the
#: ordering the 802.11-vs-802.11p link-availability literature reports:
#: p (robust half-clocked OFDM) > b (DSSS) > g (high-rate OFDM).
PROFILES: Dict[str, LinkProfile] = {
    # DSSS: slow but robust; long slots and a wide initial window.
    "802.11b": LinkProfile(
        name="802.11b", bitrate=11e6, slot_time=20e-6,
        cw_min=31, cw_max=1023, max_deferrals=5, preamble=192e-6,
        base_loss=0.02, interference_loss=0.40,
        loss_curve=((0.9, 0.05), (0.7, 0.15), (0.5, 0.35)),
    ),
    # ERP-OFDM: fast, short slots, but the high-rate modulations
    # collapse early as quality degrades and capture is poor.
    "802.11g": LinkProfile(
        name="802.11g", bitrate=54e6, slot_time=9e-6,
        cw_min=15, cw_max=1023, max_deferrals=5, preamble=20e-6,
        base_loss=0.05, interference_loss=0.50,
        loss_curve=((0.9, 0.15), (0.7, 0.35), (0.5, 0.60)),
    ),
    # Vehicular OCB mode: 10 MHz half-clocked OFDM — half the rate,
    # double the symbol guard: robust to interference and degradation.
    "802.11p": LinkProfile(
        name="802.11p", bitrate=6e6, slot_time=13e-6,
        cw_min=15, cw_max=1023, max_deferrals=5, preamble=40e-6,
        base_loss=0.01, interference_loss=0.25,
        loss_curve=((0.9, 0.02), (0.7, 0.08), (0.5, 0.20)),
    ),
}

#: A profile with every degradation knob at zero: no carrier-sense
#: deferrals, no noise floor, no interference penalty.  Driving the
#: interference machinery with it reproduces the ideal path's delivery
#: outcomes — the reduction property pinned by
#: ``tests/properties/test_phy_determinism.py``.
NULL_PROFILE = LinkProfile(
    name="null", bitrate=54e6, slot_time=9e-6,
    cw_min=15, cw_max=1023, max_deferrals=0, preamble=20e-6,
    base_loss=0.0, interference_loss=0.0,
)

#: Spellings accepted by ``--phy`` (CLI) and ``Simulation(phy=...)``.
PHY_CHOICES: Tuple[str, ...] = ("ideal", *sorted(PROFILES))


def resolve_profile(profile: Union[str, LinkProfile]) -> LinkProfile:
    if isinstance(profile, LinkProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown link profile {profile!r}; "
            f"known: {sorted(PROFILES)} (or pass a LinkProfile)"
        ) from None


class MediumModel:
    """Strategy interface: how transmissions become deliveries.

    The medium calls :meth:`broadcast` / :meth:`unicast` once per
    transmission (never per receiver), after its transmit prologue —
    sender check, ``frames_sent``, the transmit trace record and, for
    unicast, the synchronous ``no_link`` failure.  A model rules on each
    receiver and hands the survivors to
    :meth:`~repro.sim.medium.WirelessMedium._schedule_delivery`.  The
    base class zeroes every ``phy.*`` counter so the metrics schema is
    model-independent.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.deferrals = 0
        self.collisions = 0
        self.sinr_losses = 0
        self.transmissions = 0
        self.backoff_giveups = 0
        self.airtime_total = 0.0

    def broadcast(self, medium: "WirelessMedium", frame: "Frame") -> int:
        raise NotImplementedError

    def unicast(self, medium: "WirelessMedium", frame: "Frame") -> bool:
        raise NotImplementedError

    def metrics(self) -> Dict[str, float]:
        """The ``phy.*`` metric family (same keys for every model)."""
        return {
            "phy.deferrals": float(self.deferrals),
            "phy.collisions": float(self.collisions),
            "phy.sinr_loss": float(self.sinr_losses),
            "phy.transmissions": float(self.transmissions),
            "phy.backoff_giveups": float(self.backoff_giveups),
            "phy.airtime_s": float(self.airtime_total),
        }


class IdealModel(MediumModel):
    """The idealised radio: each link applies its scalar loss, alone.

    Loss is rolled per receiver at transmit time from the *medium's*
    RNG, in sorted-neighbour order.  A broadcast's survivors share one
    scheduler entry per distinct link latency (see
    :meth:`~repro.sim.medium.WirelessMedium.broadcast`).
    """

    name = "ideal"

    def broadcast(self, medium: "WirelessMedium", frame: "Frame") -> int:
        return self._roll(medium, frame, medium.neighbors(frame.sender), {})

    def unicast(self, medium: "WirelessMedium", frame: "Frame") -> bool:
        return self._roll(medium, frame, (frame.link_dst,), None) == 1

    def _roll(
        self,
        medium: "WirelessMedium",
        frame: "Frame",
        receivers: Sequence[int],
        batches: Optional[Dict[float, List[int]]],
    ) -> int:
        """Loss-roll ``receivers``; returns how many were scheduled."""
        sender = frame.sender
        links = medium._links
        rng = medium.rng
        schedule = medium._schedule_delivery
        scheduled = 0
        for receiver in receivers:
            props = links[(sender, receiver)]
            if props.loss > 0 and rng.random() < props.loss:
                medium.frames_lost += 1
                probe = None if medium.obs is None else medium.obs.probe
                if probe is not None:
                    probe.event(
                        "medium.loss", sender=sender, dst=receiver,
                        kind=frame.kind, prov=frame.meta.get("prov"),
                    )
                continue
            if schedule(frame, receiver, props, batches):
                scheduled += 1
        return scheduled


class InterferenceModel(MediumModel):
    """SINR-style interference + CSMA contention, deterministic per seed."""

    name = "interference"

    def __init__(
        self,
        profile: Union[str, LinkProfile] = "802.11g",
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.profile = resolve_profile(profile)
        self.rng = random.Random(seed)
        #: In-flight transmissions: ``(start, end, sender)``, pruned
        #: lazily whenever the channel is consulted.
        self._air: List[Tuple[float, float, int]] = []

    # -- the strategy interface ---------------------------------------------

    def broadcast(self, medium: "WirelessMedium", frame: "Frame") -> int:
        attempted = len(medium.neighbors(frame.sender))
        self._contend(medium, frame, unicast=False, attempt=0)
        return attempted

    def unicast(self, medium: "WirelessMedium", frame: "Frame") -> bool:
        self._contend(medium, frame, unicast=True, attempt=0)
        return True

    # -- CSMA contention ----------------------------------------------------

    def _carrier_busy(self, medium: "WirelessMedium", sender: int, now: float) -> bool:
        """Whether ``sender`` can hear an in-flight transmission."""
        if self._air:
            self._air = [entry for entry in self._air if entry[1] > now]
        if not self._air:
            return False
        audible = set(medium.neighbors(sender))
        return any(
            tx_sender != sender and tx_sender in audible
            for (_start, _end, tx_sender) in self._air
        )

    def _contend(
        self, medium: "WirelessMedium", frame: "Frame", unicast: bool, attempt: int
    ) -> None:
        now = medium.scheduler.now
        probe = None if medium.obs is None else medium.obs.probe
        if frame.sender not in medium._receivers:
            # The sender crashed/left while the frame waited in backoff.
            medium.frames_lost += 1
            if probe is not None:
                probe.event(
                    "phy.abort", sender=frame.sender, kind=frame.kind,
                    prov=frame.meta.get("prov"),
                )
            return
        profile = self.profile
        if profile.max_deferrals > 0 and self._carrier_busy(medium, frame.sender, now):
            if attempt < profile.max_deferrals:
                self.deferrals += 1
                window = min(profile.cw_min << attempt, profile.cw_max)
                backoff = profile.slot_time * self.rng.randint(1, window)
                if probe is not None:
                    probe.event(
                        "phy.defer", sender=frame.sender, attempt=attempt,
                        backoff_s=backoff, prov=frame.meta.get("prov"),
                    )
                medium.scheduler.call_later(
                    backoff, self._contend, medium, frame, unicast, attempt + 1
                )
                return
            # Backoff budget exhausted: transmit anyway (channel capture).
            self.backoff_giveups += 1
        self._transmit(medium, frame, unicast)

    # -- on-air: SINR verdicts per receiver ---------------------------------

    def _interferers(
        self, medium: "WirelessMedium", sender: int, receiver: int,
        start: float, end: float,
    ) -> int:
        """Concurrent transmissions audible at ``receiver`` during [start, end]."""
        count = 0
        audible = None
        for (tx_start, tx_end, tx_sender) in self._air:
            if tx_sender == sender or tx_end <= start or tx_start >= end:
                continue
            if tx_sender == receiver:
                count += 1  # half-duplex: a transmitting node cannot listen
                continue
            if audible is None:
                audible = set(medium.neighbors(receiver))
            if tx_sender in audible:
                count += 1
        return count

    def _transmit(self, medium: "WirelessMedium", frame: "Frame", unicast: bool) -> None:
        now = medium.scheduler.now
        profile = self.profile
        airtime = profile.airtime(frame.size)
        if self._air:
            self._air = [entry for entry in self._air if entry[1] > now]
        self.transmissions += 1
        self.airtime_total += airtime
        probe = None if medium.obs is None else medium.obs.probe
        links = medium._links
        sender = frame.sender
        if unicast:
            receivers = [frame.link_dst]
        else:
            # Recomputed at air time: a deferred frame reaches whoever is
            # a neighbour when it actually goes on the air.
            receivers = medium.neighbors(sender)
        for receiver in receivers:
            props = links.get((sender, receiver))
            if props is None:
                # The link vanished during backoff (unicast only —
                # broadcast receivers come from the live neighbour set).
                medium.frames_lost += 1
                if probe is not None:
                    probe.event(
                        "medium.no_link", sender=sender, dst=receiver,
                        kind=frame.kind, prov=frame.meta.get("prov"),
                    )
                continue
            interferers = self._interferers(
                medium, sender, receiver, now, now + airtime
            )
            survival = (1.0 - props.loss) * (
                1.0 - profile.quality_loss(props.quality)
            )
            if interferers:
                survival *= (1.0 - profile.interference_loss) ** interferers
            if survival < 1.0 and self.rng.random() >= survival:
                medium.frames_lost += 1
                if interferers:
                    self.collisions += 1
                    if probe is not None:
                        probe.event(
                            "phy.collision", sender=sender, dst=receiver,
                            kind=frame.kind, interferers=interferers,
                            prov=frame.meta.get("prov"),
                        )
                else:
                    self.sinr_losses += 1
                    if probe is not None:
                        probe.event(
                            "phy.sinr_loss", sender=sender, dst=receiver,
                            kind=frame.kind, prov=frame.meta.get("prov"),
                        )
                continue
            # PHY verdict: delivered.  No batch: one scheduler entry per
            # receiver is what the PHY baselines' event counts pin.
            medium._schedule_delivery(frame, receiver, props)
        # The transmission occupies the channel *after* its own receiver
        # verdicts: a frame never interferes with itself.
        self._air.append((now, now + airtime, sender))


def build_medium_model(
    phy: Union[None, str, MediumModel],
    seed: int = 0,
) -> MediumModel:
    """Resolve a ``--phy`` spelling (or a model instance) into a model.

    ``None`` and ``"ideal"`` give :class:`IdealModel`; a profile name
    (``"802.11b"``, ``"802.11g"``, ``"802.11p"``) gives an
    :class:`InterferenceModel` seeded with ``seed``; a ready-made
    :class:`MediumModel` passes through unchanged.
    """
    if phy is None:
        return IdealModel()
    if isinstance(phy, MediumModel):
        return phy
    if isinstance(phy, str):
        if phy == "ideal":
            return IdealModel()
        if phy == "interference":
            return InterferenceModel(seed=seed)
        if phy in PROFILES:
            return InterferenceModel(profile=phy, seed=seed)
    raise ValueError(
        f"unknown medium model {phy!r}; choose from {PHY_CHOICES} "
        "or pass a MediumModel instance"
    )
