"""Unit tests: the pluggable PHY layer (profiles, CSMA, SINR, composition).

The contract under test, per docs/phy.md:

* the ideal fast path is byte-identical whether the :class:`IdealModel`
  is implicit (fresh medium) or explicitly installed;
* the :class:`InterferenceModel` defers on a busy channel, gives up
  after its backoff budget, and classifies losses as collisions
  (interferers present) vs SINR losses;
* fault injection composes AFTER the PHY verdict: the tamper hook only
  sees frames the PHY let through;
* the ``phy.*`` metric family has the same keys under every model.
"""

import pytest

from repro.sim import Simulation
from repro.sim.medium import Frame, WirelessMedium
from repro.sim.phy import (
    NULL_PROFILE,
    PHY_CHOICES,
    PROFILES,
    IdealModel,
    InterferenceModel,
    LinkProfile,
    MediumModel,
    build_medium_model,
    resolve_profile,
)
from repro.utils.scheduler import Scheduler

import repro.protocols  # noqa: F401


def attach(medium, node_id):
    inbox = []
    medium.register_node(node_id, inbox.append)
    return inbox


def make_medium(model=None, seed=1):
    sched = Scheduler()
    med = WirelessMedium(sched, seed=seed)
    if model is not None:
        med.install_model(model)
    return med, sched


#: A profile whose frames occupy the channel for a very long time (8 s
#: per payload byte) with negligible backoff — lets tests force carrier
#: busy / interference overlap deterministically.
SLOW = LinkProfile(
    name="slow", bitrate=1.0, slot_time=1e-6,
    cw_min=3, cw_max=7, max_deferrals=2, preamble=0.0,
    base_loss=0.0, interference_loss=1.0,
)


class TestProfiles:
    def test_shipped_profiles_and_choices(self):
        assert set(PROFILES) == {"802.11b", "802.11g", "802.11p"}
        assert PHY_CHOICES[0] == "ideal"
        assert set(PHY_CHOICES[1:]) == set(PROFILES)

    def test_airtime_scales_with_size_and_bitrate(self):
        p = PROFILES["802.11g"]
        assert p.airtime(1000) == pytest.approx(p.preamble + 8000 / p.bitrate)
        assert p.airtime(0) == p.airtime(1)  # floor: never zero on-air time
        # 802.11p is half-clocked: same payload takes longer on the air.
        assert PROFILES["802.11p"].airtime(100) > PROFILES["802.11g"].airtime(100)

    def test_resolve_profile(self):
        assert resolve_profile("802.11b") is PROFILES["802.11b"]
        assert resolve_profile(SLOW) is SLOW
        with pytest.raises(ValueError, match="unknown link profile"):
            resolve_profile("802.11n")


class TestBuildMediumModel:
    def test_spellings(self):
        assert isinstance(build_medium_model(None), IdealModel)
        assert isinstance(build_medium_model("ideal"), IdealModel)
        model = build_medium_model("802.11p", seed=3)
        assert isinstance(model, InterferenceModel)
        assert model.profile.name == "802.11p"
        ready = InterferenceModel(SLOW)
        assert build_medium_model(ready) is ready

    def test_unknown_spelling_rejected(self):
        with pytest.raises(ValueError, match="unknown medium model"):
            build_medium_model("802.11n")
        with pytest.raises(ValueError, match="unknown medium model"):
            Simulation(phy="bogus")

    def test_metrics_schema_is_model_independent(self):
        ideal = IdealModel().metrics()
        interference = InterferenceModel("802.11b").metrics()
        assert set(ideal) == set(interference)
        assert all(k.startswith("phy.") for k in ideal)
        assert all(v == 0.0 for v in ideal.values())


class TestIdealModelInstall:
    """Explicitly installing IdealModel must not change the fast path."""

    def scenario(self, install):
        med, sched = make_medium()
        if install:
            med.install_model(IdealModel())
        boxes = {i: attach(med, i) for i in (1, 2, 3)}
        med.set_link(1, 2, loss=0.3)
        med.set_link(1, 3, loss=0.3)
        for _ in range(40):
            med.broadcast(Frame("control", b"x", sender=1))
            med.unicast(Frame("control", b"y", sender=1, link_dst=2))
        sched.run_until_idle()
        return (
            [len(boxes[i]) for i in (1, 2, 3)],
            med.frames_sent, med.frames_delivered, med.frames_lost,
            med.batches_scheduled,
        )

    def test_install_is_identity(self):
        assert self.scenario(install=False) == self.scenario(install=True)

    def test_install_keeps_phy_none(self):
        """``medium.model`` is the one dispatch handle, for every model."""
        med, _ = make_medium()
        assert isinstance(med.model, IdealModel)
        ideal = med.install_model(IdealModel())
        assert med.model is ideal
        model = med.install_model(InterferenceModel(SLOW))
        assert med.model is model

    def test_simulation_phy_ideal_is_default(self):
        assert isinstance(Simulation(seed=1).medium.model, IdealModel)
        assert isinstance(Simulation(seed=1, phy="ideal").medium.model, IdealModel)
        sim = Simulation(seed=1, phy="802.11g")
        assert isinstance(sim.medium.model, InterferenceModel)
        assert sim.phy_model is sim.medium.model


class TestCSMAContention:
    def test_busy_channel_defers(self):
        # Backoff slots (>= 100 s) outlast the 80 s airtime, so one
        # deferral is always enough to find the channel idle again.
        profile = LinkProfile(
            name="csma", bitrate=1.0, slot_time=100.0,
            cw_min=3, cw_max=7, max_deferrals=2, preamble=0.0,
            base_loss=0.0, interference_loss=1.0,
        )
        model = InterferenceModel(profile, seed=1)
        med, sched = make_medium(model)
        boxes = {i: attach(med, i) for i in (1, 2, 3)}
        med.set_link(1, 2)
        med.set_link(2, 3)
        med.set_link(1, 3)
        med.broadcast(Frame("control", b"x" * 10, sender=1))  # 80 s on air
        assert model.deferrals == 0
        med.broadcast(Frame("control", b"y" * 10, sender=2))  # hears node 1
        assert model.deferrals == 1
        sched.run_until_idle()
        # Both frames eventually delivered to every neighbour: x to {2,3},
        # y (transmitted after the deferral cleared) to {1,3}.
        assert model.transmissions == 2 and model.backoff_giveups == 0
        assert len(boxes[1]) == 1 and len(boxes[2]) == 1 and len(boxes[3]) == 2

    def test_backoff_budget_exhaustion_transmits_anyway(self):
        model = InterferenceModel(SLOW, seed=1)
        med, sched = make_medium(model)
        attach(med, 1), attach(med, 2)
        med.set_link(1, 2)
        med.broadcast(Frame("control", b"x" * 1000, sender=1))  # 8000 s on air
        med.broadcast(Frame("control", b"y", sender=2))
        sched.run_until_idle()
        # Channel stays busy through every backoff -> capture after budget.
        assert model.deferrals == SLOW.max_deferrals
        assert model.backoff_giveups == 1
        assert model.transmissions == 2

    def test_sender_crash_during_backoff_aborts(self):
        model = InterferenceModel(SLOW, seed=1)
        med, sched = make_medium(model)
        attach(med, 1), attach(med, 2), attach(med, 3)
        med.set_link(1, 2)
        med.set_link(2, 3)
        med.broadcast(Frame("control", b"x" * 10, sender=1))
        med.broadcast(Frame("control", b"y", sender=2))  # deferred
        lost_before = med.frames_lost
        med.unregister_node(2)
        sched.run_until_idle()
        # +1 for the aborted backoff frame, +1 for node 1's in-flight
        # frame arriving at the now-unregistered receiver.
        assert med.frames_lost == lost_before + 2
        assert model.transmissions == 1

    def test_null_profile_never_defers(self):
        model = InterferenceModel(NULL_PROFILE, seed=1)
        med, sched = make_medium(model)
        boxes = {i: attach(med, i) for i in (1, 2)}
        med.set_link(1, 2)
        for _ in range(20):
            med.broadcast(Frame("control", b"x" * 100, sender=1))
            med.broadcast(Frame("control", b"y" * 100, sender=2))
        sched.run_until_idle()
        assert model.deferrals == 0 and model.backoff_giveups == 0
        assert len(boxes[1]) == 20 and len(boxes[2]) == 20


class TestInterference:
    def test_hidden_terminal_collides(self):
        # 1 -- 2 -- 3: senders 1 and 3 cannot hear each other (no carrier
        # sense), both transmit at once, receiver 2 loses the overlap.
        model = InterferenceModel(SLOW, seed=1)
        med, sched = make_medium(model)
        boxes = {i: attach(med, i) for i in (1, 2, 3)}
        med.set_link(1, 2)
        med.set_link(2, 3)
        med.broadcast(Frame("control", b"x" * 10, sender=1))  # delivered: quiet air
        med.broadcast(Frame("control", b"y" * 10, sender=3))  # overlaps at node 2
        sched.run_until_idle()
        assert model.deferrals == 0          # hidden: no carrier sensed
        assert model.collisions == 1         # SLOW.interference_loss == 1.0
        assert len(boxes[2]) == 1            # first frame got through
        assert model.sinr_losses == 0

    def test_half_duplex_transmitter_cannot_receive(self):
        model = InterferenceModel(SLOW, seed=1)
        med, _sched = make_medium(model)
        attach(med, 1), attach(med, 2)
        med.set_link(1, 2)
        # Receiver 2 is itself on the air during the overlap window: it
        # counts as an interferer for its own reception (half-duplex)
        # even though a transmitter is never audible to itself.
        model._air = [(0.0, 80.0, 2)]
        assert model._interferers(med, 1, 2, 0.0, 1.0) == 1
        # Disjoint window: no overlap, no interference.
        assert model._interferers(med, 1, 2, 80.0, 81.0) == 0

    def test_base_loss_counts_as_sinr_loss(self):
        profile = LinkProfile(
            name="lossy", bitrate=1e6, slot_time=1e-6,
            cw_min=3, cw_max=7, max_deferrals=0, preamble=0.0,
            base_loss=1.0, interference_loss=0.0,
        )
        model = InterferenceModel(profile, seed=1)
        med, sched = make_medium(model)
        boxes = {i: attach(med, i) for i in (1, 2)}
        med.set_link(1, 2)
        med.broadcast(Frame("control", b"x", sender=1))
        sched.run_until_idle()
        assert boxes[2] == []
        assert model.sinr_losses == 1 and model.collisions == 0
        assert med.frames_lost == 1

    def test_unicast_no_link_is_synchronous_failure(self):
        model = InterferenceModel(NULL_PROFILE, seed=1)
        med, sched = make_medium(model)
        attach(med, 1), attach(med, 2), attach(med, 3)
        med.set_link(1, 2)
        assert med.unicast(Frame("control", b"x", sender=1, link_dst=2)) is True
        assert med.unicast(Frame("control", b"x", sender=1, link_dst=3)) is False
        assert med.frames_lost == 1


class TestFaultComposition:
    """Gilbert-Elliott / tamper windows apply AFTER the PHY verdict."""

    def test_tamper_sees_only_phy_survivors(self):
        seen = []

        def tamper(frame, receiver, props):
            seen.append(receiver)
            return []  # drop everything that reaches the hook

        profile = LinkProfile(
            name="half", bitrate=1e6, slot_time=1e-6,
            cw_min=3, cw_max=7, max_deferrals=0, preamble=0.0,
            base_loss=0.5, interference_loss=0.0,
        )
        model = InterferenceModel(profile, seed=1)
        med, sched = make_medium(model)
        boxes = {i: attach(med, i) for i in (1, 2)}
        med.set_link(1, 2)
        med.tamper = tamper
        for _ in range(100):
            med.broadcast(Frame("control", b"x", sender=1))
        sched.run_until_idle()
        survivors = 100 - model.sinr_losses
        assert len(seen) == survivors          # hook saw exactly the survivors
        assert med.frames_tampered == survivors
        assert boxes[2] == []                  # ...and dropped them all

    def test_props_loss_feeds_the_phy_noise_floor(self):
        # A Gilbert-Elliott burst mutates LinkProperties.loss; the PHY
        # folds it into survival, so loss=1.0 kills every frame even
        # under the loss-free NULL_PROFILE.
        model = InterferenceModel(NULL_PROFILE, seed=1)
        med, sched = make_medium(model)
        boxes = {i: attach(med, i) for i in (1, 2)}
        med.set_link(1, 2, loss=1.0)
        med.broadcast(Frame("control", b"x", sender=1))
        sched.run_until_idle()
        assert boxes[2] == [] and med.frames_lost == 1


class TestPipelineOrder:
    """loss/PHY verdict → tamper → schedule, once.

    Sender 1 reaches five receivers, one per pipeline outcome: 2 is
    rolled away (link loss 1.0), 4 and 6 are plain deliveries, 5 is
    tampered into one copy at the link latency, 7 is tampered into
    nothing.
    """

    @pytest.mark.parametrize("primitive", ["broadcast", "unicast"])
    @pytest.mark.parametrize(
        "make_model", [IdealModel, lambda: InterferenceModel(NULL_PROFILE, seed=1)],
        ids=["ideal", "interference-null"],
    )
    def test_stage_order_and_counters(self, make_model, primitive):
        med, sched = make_medium(make_model())
        arrivals = []
        receivers = (2, 4, 5, 6, 7)
        for node in (1,) + receivers:
            med.register_node(node, lambda frame, node=node: arrivals.append(node))
            if node > 1:
                med.set_link(1, node, loss=1.0 if node == 2 else 0.0)
        tampered = []

        def tamper(frame, receiver, props):
            tampered.append(receiver)
            if receiver == 5:
                return [(props.latency, frame)]
            return [] if receiver == 7 else None

        med.tamper = tamper
        if primitive == "broadcast":
            assert med.broadcast(Frame("control", b"x", sender=1)) >= 3
        else:
            sent = [
                med.unicast(Frame("control", b"x", sender=1, link_dst=node))
                for node in receivers
            ]
            assert sent[1:4] == [True] * 3
        sched.run_until_idle()

        assert tampered == [4, 5, 6, 7]       # a rolled-away frame never got here
        # The tampered copy sealed the open batch, so 6 was not delivered
        # ahead of 5 even though it shares 4's latency.
        assert arrivals == [4, 5, 6]
        batched = primitive == "broadcast" and isinstance(med.model, IdealModel)
        assert med.batches_scheduled == (2 if batched else 0)
        assert med.frames_sent == (1 if primitive == "broadcast" else 5)
        assert med.frames_tampered == 2
        assert med.frames_lost == 2
        assert med.frames_delivered == 3
        assert len(receivers) == med.frames_lost + med.frames_delivered


class TestSimulationIntegration:
    def test_phy_metrics_always_present(self):
        for phy in (None, "802.11b"):
            sim = Simulation(seed=2, phy=phy)
            collected = sim.obs.registry.snapshot(deterministic=True)["collected"]
            assert {
                "phy.deferrals", "phy.collisions", "phy.sinr_loss",
                "phy.transmissions", "phy.backoff_giveups", "phy.airtime_s",
            } <= set(collected)

    def test_scenario_determinism_and_profile_distinction(self):
        from repro.tools.scenario import run_scenario

        spec = {
            "protocol": "olsr", "topology": "grid:3x3", "duration": 8.0,
            "warmup": 4.0, "seed": 5, "traffic": ["1:9"],
        }
        ratios = {}
        for phy in ("ideal", "802.11g", "802.11p"):
            first = run_scenario(dict(spec, phy=phy))
            second = run_scenario(dict(spec, phy=phy))
            assert first == second, f"non-deterministic under phy={phy}"
            flow = first["flows"][0]
            ratios[phy] = flow["delivered"] / max(flow["sent"], 1)
        assert ratios["802.11g"] < ratios["ideal"]

    def test_scenario_cli_has_phy_flag(self):
        from repro.tools.scenario import build_parser

        args = build_parser().parse_args(["--phy", "802.11p"])
        assert args.phy == "802.11p"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--phy", "802.11n"])

    def test_medium_model_abstract_interface(self):
        model = MediumModel()
        med, _ = make_medium()
        with pytest.raises(NotImplementedError):
            model.broadcast(med, Frame("control", b"", sender=1))
        with pytest.raises(NotImplementedError):
            model.unicast(med, Frame("control", b"", sender=1, link_dst=2))
