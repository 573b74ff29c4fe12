"""Deterministic, seed-driven fault injection (``repro.sim.faults``).

The paper's testbed exercised its deployments under adversity with
MAC-level filtering and MobiEmu-driven link breaks (section 6); link
availability studies show protocol rankings invert under churn, so the
substrate needs *first-class, reproducible* fault scheduling rather than
ad-hoc ``break_edge`` calls sprinkled through tests.

Two pieces:

* :class:`FaultPlan` — a declarative, JSON-serialisable schedule of fault
  steps (link break/restore, link flapping with configurable up/down
  duration distributions, Gilbert-Elliott loss bursts, node crash/restart,
  message corruption/duplication/reordering windows, partition/heal);
* :class:`FaultInjector` — executes a plan against a live
  :class:`~repro.sim.network.Simulation`, drawing **every** random
  quantity from one ``random.Random(plan.seed)`` stream so identical
  seeds replay identical fault schedules, byte for byte.

Determinism contract: the flap schedule is expanded at install time (in
sorted step order), tamper decisions are rolled per frame in scheduler
order, and Gilbert-Elliott transitions are sampled on fixed ticks — all
from the injector's dedicated RNG, never from module-level ``random`` and
never from the medium's own loss RNG.  :meth:`FaultInjector.schedule`
exposes the fully-expanded deterministic schedule for regression tests.

Composition with PHY models (:mod:`repro.sim.phy`): the medium model's
verdict runs first, so the tamper hook (corruption / duplication /
reordering windows) only ever sees frames the PHY let through, and
Gilbert-Elliott bursts mutate :class:`~repro.sim.medium.LinkProperties`
loss, which a non-ideal PHY folds into its noise floor.  Fault plans run
unchanged under every medium model; see ``docs/phy.md``.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.medium import Frame, LinkProperties

#: Step kinds a plan may contain, with their required parameters.
STEP_KINDS = {
    "break_link": ("a", "b"),
    "restore_link": ("a", "b"),
    "set_link_loss": ("a", "b", "loss"),
    "flap_link": ("a", "b", "flaps"),
    "loss_burst": ("a", "b", "duration"),
    "crash": ("node",),
    "restart": ("node",),
    "partition": ("group_a", "group_b"),
    "heal": (),
    "corruption": ("duration", "rate"),
    "duplication": ("duration", "rate"),
    "reordering": ("duration", "rate"),
}

#: Step kinds that perturb the network (start a recovery measurement).
DISRUPTIVE_KINDS = frozenset(
    {
        "break_link",
        "set_link_loss",
        "flap_link",
        "loss_burst",
        "crash",
        "partition",
    }
)


class FaultPlanError(ValueError):
    """A malformed fault plan or step."""


@dataclass(frozen=True)
class FaultStep:
    """One declarative fault event, ``at`` seconds after plan start."""

    at: float
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {sorted(STEP_KINDS)})"
            )
        if self.at < 0:
            raise FaultPlanError(f"step time must be >= 0: {self.at}")
        missing = [k for k in STEP_KINDS[self.kind] if k not in self.params]
        if missing:
            raise FaultPlanError(
                f"{self.kind} step at t={self.at} missing parameters {missing}"
            )


class FaultPlan:
    """A declarative, replayable fault schedule.

    Builder methods append steps; ``seed`` drives every random draw the
    injector makes while executing the plan.  Plans serialise to plain
    JSON (:meth:`to_dict` / :meth:`from_dict`) so scenarios can ship them
    as files (``repro.tools.scenario --fault-plan``).
    """

    def __init__(self, seed: int = 0, steps: Optional[Sequence[FaultStep]] = None):
        self.seed = seed
        self.steps: List[FaultStep] = list(steps or [])

    # -- builder API ---------------------------------------------------------

    def add(self, at: float, kind: str, **params: Any) -> "FaultPlan":
        self.steps.append(FaultStep(at, kind, params))
        return self

    def break_link(self, at: float, a: int, b: int) -> "FaultPlan":
        return self.add(at, "break_link", a=a, b=b)

    def restore_link(self, at: float, a: int, b: int) -> "FaultPlan":
        return self.add(at, "restore_link", a=a, b=b)

    def set_link_loss(self, at: float, a: int, b: int, loss: float) -> "FaultPlan":
        if not 0.0 <= loss <= 1.0:
            raise FaultPlanError(f"loss must be in [0, 1]: {loss}")
        return self.add(at, "set_link_loss", a=a, b=b, loss=loss)

    def flap_link(
        self,
        at: float,
        a: int,
        b: int,
        flaps: int = 3,
        down: Tuple[float, float] = (0.5, 2.0),
        up: Tuple[float, float] = (1.0, 4.0),
    ) -> "FaultPlan":
        """Link churn: ``flaps`` down/up cycles with uniform durations."""
        if flaps < 1:
            raise FaultPlanError(f"flaps must be >= 1: {flaps}")
        return self.add(
            at, "flap_link", a=a, b=b, flaps=flaps,
            down=list(down), up=list(up),
        )

    def loss_burst(
        self,
        at: float,
        a: int,
        b: int,
        duration: float,
        p_enter: float = 0.3,
        p_exit: float = 0.4,
        loss_bad: float = 0.8,
        loss_good: Optional[float] = None,
        tick: float = 0.1,
    ) -> "FaultPlan":
        """Gilbert-Elliott two-state degradation layered on the link.

        Every ``tick`` seconds the link transitions between a *good* state
        (loss ``loss_good``, defaulting to the link's configured loss) and
        a *bad* state (loss ``loss_bad``) with probabilities ``p_enter`` /
        ``p_exit``; the original loss is restored when the burst ends.
        """
        if duration <= 0 or tick <= 0:
            raise FaultPlanError("loss_burst duration and tick must be > 0")
        return self.add(
            at, "loss_burst", a=a, b=b, duration=duration,
            p_enter=p_enter, p_exit=p_exit,
            loss_bad=loss_bad, loss_good=loss_good, tick=tick,
        )

    def crash(self, at: float, node: int) -> "FaultPlan":
        return self.add(at, "crash", node=node)

    def restart(self, at: float, node: int) -> "FaultPlan":
        return self.add(at, "restart", node=node)

    def partition(
        self, at: float, group_a: Sequence[int], group_b: Sequence[int]
    ) -> "FaultPlan":
        return self.add(
            at, "partition", group_a=list(group_a), group_b=list(group_b)
        )

    def heal(self, at: float) -> "FaultPlan":
        """Undo the most recent un-healed partition."""
        return self.add(at, "heal")

    def corruption(
        self, at: float, duration: float, rate: float
    ) -> "FaultPlan":
        """Window during which frames are corrupted with probability ``rate``.

        Corrupted control frames arrive with flipped bytes (exercising
        parser robustness); corrupted data frames are dropped, the
        link-layer CRC-failure analogue.
        """
        return self.add(at, "corruption", duration=duration, rate=rate)

    def duplication(self, at: float, duration: float, rate: float) -> "FaultPlan":
        """Window during which frames are delivered twice with ``rate``."""
        return self.add(at, "duplication", duration=duration, rate=rate)

    def reordering(
        self, at: float, duration: float, rate: float, max_delay: float = 0.05
    ) -> "FaultPlan":
        """Window during which frames are held back up to ``max_delay``."""
        return self.add(
            at, "reordering", duration=duration, rate=rate, max_delay=max_delay
        )

    # -- introspection -------------------------------------------------------

    def horizon(self) -> float:
        """Latest instant (relative to plan start) at which the plan acts."""
        horizon = 0.0
        for step in self.steps:
            end = step.at
            if step.kind in ("loss_burst", "corruption", "duplication", "reordering"):
                end += float(step.params["duration"])
            elif step.kind == "flap_link":
                down = step.params.get("down", [0.5, 2.0])
                up = step.params.get("up", [1.0, 4.0])
                end += step.params["flaps"] * (max(down) + max(up))
            horizon = max(horizon, end)
        return horizon

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "steps": [
                {"at": s.at, "kind": s.kind, **s.params}
                for s in self.steps
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
            raise FaultPlanError("fault plan must be a dict with a 'steps' list")
        plan = cls(seed=int(data.get("seed", 0)))
        for raw in data["steps"]:
            raw = dict(raw)
            try:
                at = float(raw.pop("at"))
                kind = str(raw.pop("kind"))
            except KeyError as exc:
                raise FaultPlanError(f"step missing {exc} field: {raw}") from None
            plan.steps.append(FaultStep(at, kind, raw))
        return plan

    @classmethod
    def from_json(cls, path: Union[str, pathlib.Path]) -> "FaultPlan":
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(data)

    def to_json(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def __len__(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class AppliedFault:
    """One fault event as actually applied (post flap expansion)."""

    time: float
    kind: str
    params: Tuple[Tuple[str, Any], ...]


class _TamperWindow:
    __slots__ = ("kind", "start", "end", "rate", "max_delay")

    def __init__(self, kind: str, start: float, end: float, rate: float,
                 max_delay: float = 0.0) -> None:
        self.kind = kind
        self.start = start
        self.end = end
        self.rate = rate
        self.max_delay = max_delay


class FaultInjector:
    """Executes a :class:`FaultPlan` against a live simulation.

    ``kits`` maps node id -> deployment (anything with ``crash()`` and
    ``rebuild()``; :class:`repro.core.manetkit.ManetKit` qualifies) and is
    required only when the plan contains crash/restart steps — the mapping
    is updated **in place** on restart so callers keep a live view.
    ``rebuild`` overrides how a restarted node's stack is rebuilt (needed
    for compositions such as ZRP that are assembled outside
    ``load_protocol``); it is called as ``rebuild(node_id, old_kit)`` and
    must return the new deployment.
    """

    def __init__(
        self,
        sim,
        kits: Optional[Dict[int, Any]] = None,
        rebuild: Optional[Callable[[int, Any], Any]] = None,
    ) -> None:
        self.sim = sim
        self.kits = kits
        self._rebuild = rebuild
        self.rng: random.Random = random.Random(0)
        self.applied: List[AppliedFault] = []
        self._listeners: List[Callable[[AppliedFault], None]] = []
        self._expanded: List[Tuple[float, str, Tuple[Tuple[str, Any], ...]]] = []
        self._partitions: List[List[Tuple[int, int]]] = []
        self._windows: List[_TamperWindow] = []
        self._installed = False

    # -- wiring ---------------------------------------------------------------

    def add_listener(self, listener: Callable[[AppliedFault], None]) -> None:
        """``listener(applied_fault)`` runs after each step is applied."""
        self._listeners.append(listener)

    def schedule(self) -> List[Tuple[float, str, Tuple[Tuple[str, Any], ...]]]:
        """The fully expanded deterministic schedule (post install)."""
        return list(self._expanded)

    # -- installation ---------------------------------------------------------

    def install(self, plan: FaultPlan) -> "FaultInjector":
        """Schedule every plan step relative to the current sim time.

        Flap steps are expanded into primitive break/restore pairs *now*,
        drawing durations from the plan-seeded RNG in sorted step order —
        which is what makes two installs of the same plan identical.
        """
        if self._installed:
            raise FaultPlanError("injector already has a plan installed")
        self._installed = True
        self.rng = random.Random(plan.seed)
        base = self.sim.now
        ordered = sorted(
            enumerate(plan.steps), key=lambda pair: (pair[1].at, pair[0])
        )
        needs_kits = any(s.kind in ("crash", "restart") for s in plan.steps)
        if needs_kits and self.kits is None:
            raise FaultPlanError(
                "plan contains crash/restart steps but no kits mapping was given"
            )
        for _, step in ordered:
            if step.kind == "flap_link":
                self._expand_flap(step)
            else:
                self._expanded.append(
                    (step.at, step.kind, _freeze(step.params))
                )
        for at, kind, params in self._expanded:
            self.sim.scheduler.call_at(
                base + at, self._apply, at, kind, dict(params)
            )
        return self

    def _expand_flap(self, step: FaultStep) -> None:
        down_lo, down_hi = step.params.get("down", [0.5, 2.0])
        up_lo, up_hi = step.params.get("up", [1.0, 4.0])
        a, b = step.params["a"], step.params["b"]
        t = step.at
        for _ in range(int(step.params["flaps"])):
            down_for = self.rng.uniform(down_lo, down_hi)
            up_after = self.rng.uniform(up_lo, up_hi)
            self._expanded.append(
                (t, "break_link", _freeze({"a": a, "b": b, "flap": True}))
            )
            self._expanded.append(
                (t + down_for, "restore_link",
                 _freeze({"a": a, "b": b, "flap": True}))
            )
            t += down_for + up_after

    # -- step application -----------------------------------------------------

    def _apply(self, at: float, kind: str, params: Dict[str, Any]) -> None:
        handler = getattr(self, f"_apply_{kind}")
        obs = getattr(self.sim, "obs", None)
        probe = None if obs is None else obs.probe
        if probe is None:
            handler(params)
        else:
            with probe.frame("fault.apply", kind):
                handler(params)
        record = AppliedFault(self.sim.now, kind, _freeze(params))
        self.applied.append(record)
        if obs is not None:
            obs.registry.counter("faults.steps", kind=kind).inc()
            if probe is not None:
                probe.event(f"fault.{kind}", **params)
        for listener in list(self._listeners):
            listener(record)

    def _apply_break_link(self, params: Dict[str, Any]) -> None:
        self.sim.topology.break_edge(params["a"], params["b"])

    def _apply_restore_link(self, params: Dict[str, Any]) -> None:
        a, b = params["a"], params["b"]
        topo = self.sim.topology
        if any(set(e) == {a, b} for e in topo.edges()):
            # Already in the managed layout (e.g. double restore): just
            # make sure the medium agrees.
            topo.medium.set_link(a, b, latency=topo.latency, loss=topo.loss)
        else:
            topo.add_edge(a, b)

    def _apply_set_link_loss(self, params: Dict[str, Any]) -> None:
        a, b, loss = params["a"], params["b"], params["loss"]
        for pair in ((a, b), (b, a)):
            props = self.sim.medium.link_properties(*pair)
            if props is not None:
                props.loss = loss

    def _apply_loss_burst(self, params: Dict[str, Any]) -> None:
        _GilbertElliottBurst(self, params).start()

    def _apply_crash(self, params: Dict[str, Any]) -> None:
        node_id = params["node"]
        kit = self.kits.get(node_id)
        if kit is None:
            raise FaultPlanError(f"no deployment registered for node {node_id}")
        kit.crash()

    def _apply_restart(self, params: Dict[str, Any]) -> None:
        node_id = params["node"]
        old_kit = self.kits.get(node_id)
        if old_kit is None or not getattr(old_kit, "crashed", False):
            raise FaultPlanError(
                f"restart of node {node_id} without a preceding crash"
            )
        node = self.sim.node(node_id)
        node.power_on()
        self.sim.topology.restore_node(node_id)
        if self._rebuild is not None:
            self.kits[node_id] = self._rebuild(node_id, old_kit)
        else:
            self.kits[node_id] = old_kit.rebuild()

    def _apply_partition(self, params: Dict[str, Any]) -> None:
        cut = self.sim.topology.partition(params["group_a"], params["group_b"])
        self._partitions.append(cut)

    def _apply_heal(self, params: Dict[str, Any]) -> None:
        if not self._partitions:
            return
        registered = set(self.sim.medium.node_ids())
        for a, b in self._partitions.pop():
            if a in registered and b in registered:
                self._apply_restore_link({"a": a, "b": b})

    # -- tamper windows (corruption / duplication / reordering) ---------------

    def _apply_corruption(self, params: Dict[str, Any]) -> None:
        self._open_window("corruption", params)

    def _apply_duplication(self, params: Dict[str, Any]) -> None:
        self._open_window("duplication", params)

    def _apply_reordering(self, params: Dict[str, Any]) -> None:
        self._open_window("reordering", params)

    def _open_window(self, kind: str, params: Dict[str, Any]) -> None:
        now = self.sim.now
        self._windows.append(
            _TamperWindow(
                kind, now, now + float(params["duration"]),
                float(params["rate"]), float(params.get("max_delay", 0.0)),
            )
        )
        self.sim.medium.tamper = self._tamper

    def _tamper(
        self, frame: Frame, receiver_id: int, props: LinkProperties
    ) -> Optional[List[Tuple[float, Frame]]]:
        now = self.sim.now
        live = [w for w in self._windows if w.end > now]
        if len(live) != len(self._windows):
            self._windows = live
            if not live:
                self.sim.medium.tamper = None
                return None
        for window in live:
            if now < window.start:
                continue
            # One roll per active window, in open order, first hit wins —
            # all from the plan-seeded RNG, so replays are identical.
            if self.rng.random() >= window.rate:
                continue
            if window.kind == "corruption":
                return self._corrupt(frame, props)
            if window.kind == "duplication":
                return self._duplicate(frame, props)
            return [(props.latency + self.rng.uniform(0.0, window.max_delay), frame)]
        return None

    def _corrupt(
        self, frame: Frame, props: LinkProperties
    ) -> List[Tuple[float, Frame]]:
        if frame.kind != "control" or not frame.payload:
            # Data frames: corruption fails the link-layer CRC -> drop.
            return []
        payload = bytearray(frame.payload)
        index = self.rng.randrange(len(payload))
        payload[index] ^= 0xFF
        corrupted = replace(
            frame, payload=bytes(payload),
            meta={**frame.meta, "corrupted": True},
        )
        return [(props.latency, corrupted)]

    def _duplicate(
        self, frame: Frame, props: LinkProperties
    ) -> List[Tuple[float, Frame]]:
        if frame.kind == "data":
            # TTL is mutated per hop, so the duplicate needs its own packet.
            twin = replace(frame, payload=replace(frame.payload))
        else:
            twin = replace(frame)
        return [
            (props.latency, frame),
            (props.latency + self.rng.uniform(0.0, props.latency), twin),
        ]


class _GilbertElliottBurst:
    """One running Gilbert-Elliott degradation on a (symmetric) link."""

    def __init__(self, injector: FaultInjector, params: Dict[str, Any]) -> None:
        self.injector = injector
        self.a = params["a"]
        self.b = params["b"]
        self.end = injector.sim.now + float(params["duration"])
        self.p_enter = float(params.get("p_enter", 0.3))
        self.p_exit = float(params.get("p_exit", 0.4))
        self.loss_bad = float(params.get("loss_bad", 0.8))
        self.loss_good = params.get("loss_good")
        self.tick = float(params.get("tick", 0.1))
        self.bad = False
        self._saved: Dict[Tuple[int, int], float] = {}

    def start(self) -> None:
        for pair in ((self.a, self.b), (self.b, self.a)):
            props = self.injector.sim.medium.link_properties(*pair)
            if props is not None:
                self._saved[pair] = props.loss
        self._tick()

    def _good_loss(self, pair: Tuple[int, int]) -> float:
        if self.loss_good is not None:
            return float(self.loss_good)
        return self._saved.get(pair, 0.0)

    def _set_loss(self) -> None:
        for pair in ((self.a, self.b), (self.b, self.a)):
            props = self.injector.sim.medium.link_properties(*pair)
            if props is not None:
                props.loss = self.loss_bad if self.bad else self._good_loss(pair)

    def _tick(self) -> None:
        sim = self.injector.sim
        if sim.now >= self.end:
            self.bad = False
            for pair, loss in self._saved.items():
                props = sim.medium.link_properties(*pair)
                if props is not None:
                    props.loss = loss
            obs = getattr(sim, "obs", None)
            probe = None if obs is None else obs.probe
            if probe is not None:
                probe.event("fault.loss_burst_end", a=self.a, b=self.b)
            return
        roll = self.injector.rng.random()
        if self.bad and roll < self.p_exit:
            self.bad = False
        elif not self.bad and roll < self.p_enter:
            self.bad = True
        self._set_loss()
        sim.scheduler.call_later(self.tick, self._tick)


def _freeze(params: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical immutable view of step params (lists become tuples)."""
    def canon(value: Any) -> Any:
        if isinstance(value, list):
            return tuple(canon(v) for v in value)
        return value

    return tuple(sorted((k, canon(v)) for k, v in params.items()))


__all__ = [
    "STEP_KINDS",
    "DISRUPTIVE_KINDS",
    "FaultPlanError",
    "FaultStep",
    "FaultPlan",
    "AppliedFault",
    "FaultInjector",
]
