"""Vectorised correlation-rule checks on the ``(macro, sub-location)`` grid.

The seed implementation materialised one ``frozenset`` of
:class:`~repro.mining.context_rules.Item` per hypothesised state — and
rebuilt those sets for both per-user pruning and the cross-user prune
mask every step.  This module replaces per-pair Python set algebra with
tables built once per pruner:

* every rule factorises into a *state part* (macro / sub-location / room
  items — a function of a candidate's ``(macro, subloc)`` codes alone)
  and a *gate* (posture / gesture / ambient items — one bool per step,
  independent of the candidate);
* each pruner evaluates its rules' state parts once, at construction, on
  every code of the grid: an ``(M·L, R)`` 0/1 table whose row ``m·L + l``
  holds candidate ``(m, l)``'s state parts, so a candidate's rows are
  gathered by code;
* gates collapse to a 0/1 vector memoised per observed (posture,
  gesture, fired rooms, fired objects) combination;
* candidate *i* survives iff no gated rule's state part covers it.  A
  single-user pruner memoises, per gate key, the whole grid's keep-mask
  (one mat-vec per key) and answers a step with one gather; a cross-user
  pruner gathers both sides' rows and takes one gated matmul per step.

The semantics exactly mirror the seed's item-set formulation (kept as the
executable spec in ``tests/decode_spec.py``): a state contributes
macro / posture / sub-location / room items at time ``t`` (posture may be
``None`` when the wearable channel is missing) and a gestural item only
when the observed gesture is truthy; ambient items are the step's fired
rooms and objects; items at ``t-1`` or on foreign slots are never
present.  A forcing rule prunes a candidate when its antecedent is fully
present and the candidate assigns the consequent's attribute a different
value (open world: an absent attribute never violates); an exclusion
prunes a pair when it is phrased as ``(u1, u2)`` and both items are
present.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.trace import ContextStep, ResidentObservation
from repro.mining.context_rules import Item
from repro.mining.correlation_miner import CorrelationRuleSet
from repro.mining.rules import AssociationRule

#: Attributes whose presence is a property of the *observation*, not of the
#: hypothesised state — one bool per step instead of one bool per candidate.
_SCALAR_ATTRS = frozenset(("posture", "gesture"))
#: Attributes carried by the hypothesised state itself.
_STATE_ATTRS = frozenset(("macro", "subloc", "room"))


class StepItems:
    """Scalar ambient-item membership for one step."""

    __slots__ = ("rooms", "objects")

    def __init__(self, step: ContextStep) -> None:
        self.rooms = step.rooms_fired
        self.objects = step.objects_fired

    def has(self, item: Item) -> bool:
        """Is this ambient item part of the step's transaction?"""
        if item.slot != "amb" or item.time != "t":
            return False
        if item.attr == "room":
            return item.value in self.rooms
        if item.attr == "object":
            return item.value in self.objects
        return False

    def conflicts(self, item: Item) -> bool:
        """Does the step carry a same-attribute ambient item with a
        different value?"""
        if item.time != "t":
            return False
        if item.attr == "room":
            return any(r != item.value for r in self.rooms)
        if item.attr == "object":
            return any(o != item.value for o in self.objects)
        return False


def scalar_present(obs: ResidentObservation, item: Item) -> bool:
    """Presence of an observation-level item (posture / gesture)."""
    if item.time != "t":
        return False
    if item.attr == "posture":
        return obs.posture == item.value
    return bool(obs.gesture) and obs.gesture == item.value


def scalar_conflict(obs: ResidentObservation, cons: Item) -> bool:
    """Same-attribute-different-value check for observation-level items."""
    if cons.time != "t":
        return False
    if cons.attr == "posture":
        return obs.posture != cons.value
    return bool(obs.gesture) and obs.gesture != cons.value


def state_present(
    item: Item, m: np.ndarray, l: np.ndarray, cm, rooms: np.ndarray
) -> np.ndarray:
    """(n,) mask: candidate states containing a state-level item."""
    n = m.shape[0]
    if item.time != "t":
        return np.zeros(n, dtype=bool)
    if item.attr == "macro":
        if item.value in cm.macro_index:
            return m == cm.macro_index.index(item.value)
        return np.zeros(n, dtype=bool)
    if item.attr == "subloc":
        if item.value in cm.subloc_index:
            return l == cm.subloc_index.index(item.value)
        return np.zeros(n, dtype=bool)
    if item.attr == "room":
        return rooms == item.value
    return np.zeros(n, dtype=bool)


def state_conflict(
    cons: Item, m: np.ndarray, l: np.ndarray, cm, rooms: np.ndarray
) -> np.ndarray:
    """(n,) mask: candidates carrying a same-``(time, attr)`` state item
    with a *different* value."""
    n = m.shape[0]
    if cons.time != "t":
        return np.zeros(n, dtype=bool)
    if cons.attr == "macro":
        if cons.value in cm.macro_index:
            return m != cm.macro_index.index(cons.value)
        return np.ones(n, dtype=bool)
    if cons.attr == "subloc":
        if cons.value in cm.subloc_index:
            return l != cm.subloc_index.index(cons.value)
        return np.ones(n, dtype=bool)
    if cons.attr == "room":
        return rooms != cons.value
    return np.zeros(n, dtype=bool)


class CompiledForcing:
    """One forcing rule with its antecedent pre-split by slot and kind."""

    __slots__ = (
        "ant_u1", "ant_u2", "ant_amb",
        "u1_scalar", "u1_vector", "u2_scalar", "u2_vector",
        "cons", "dead",
    )

    def __init__(self, rule: AssociationRule) -> None:
        self.ant_u1: Tuple[Item, ...] = tuple(i for i in rule.antecedent if i.slot == "u1")
        self.ant_u2: Tuple[Item, ...] = tuple(i for i in rule.antecedent if i.slot == "u2")
        self.ant_amb: Tuple[Item, ...] = tuple(i for i in rule.antecedent if i.slot == "amb")
        self.u1_scalar = tuple(i for i in self.ant_u1 if i.attr in _SCALAR_ATTRS)
        self.u1_vector = tuple(i for i in self.ant_u1 if i.attr not in _SCALAR_ATTRS)
        self.u2_scalar = tuple(i for i in self.ant_u2 if i.attr in _SCALAR_ATTRS)
        self.u2_vector = tuple(i for i in self.ant_u2 if i.attr not in _SCALAR_ATTRS)
        self.cons: Item = rule.consequent
        #: Antecedent items on slots no candidate list ever carries: the
        #: rule can never fire in the single-user path.
        self.dead = any(
            i.slot not in ("u1", "u2", "amb") for i in rule.antecedent
        )


class _Gate:
    """The step-dependent activation of one rule row.

    ``amb_items`` must all be fired; ``scalars1`` / ``scalars2`` must all
    be present in the respective observation; when the consequent lives on
    an observation-level attribute (``viol_side``/``viol_cons``) or on the
    ambient slot (``viol_amb``), its violation check is scalar too and
    folds into the gate.
    """

    __slots__ = ("amb_items", "scalars1", "scalars2", "viol_side", "viol_cons", "viol_amb")

    def __init__(self, amb_items=(), scalars1=(), scalars2=(), viol_side=0,
                 viol_cons=None, viol_amb=None) -> None:
        self.amb_items = tuple(amb_items)
        self.scalars1 = tuple(scalars1)
        self.scalars2 = tuple(scalars2)
        self.viol_side = viol_side
        self.viol_cons = viol_cons
        self.viol_amb = viol_amb

    def active(self, amb: StepItems, obs1: ResidentObservation,
               obs2: Optional[ResidentObservation]) -> bool:
        for item in self.amb_items:
            if not amb.has(item):
                return False
        for item in self.scalars1:
            if not scalar_present(obs1, item):
                return False
        for item in self.scalars2:
            if not scalar_present(obs2, item):
                return False
        if self.viol_cons is not None:
            obs = obs1 if self.viol_side == 1 else obs2
            if not (scalar_conflict(obs, self.viol_cons) and not scalar_present(obs, self.viol_cons)):
                return False
        if self.viol_amb is not None:
            if not (amb.conflicts(self.viol_amb) and not amb.has(self.viol_amb)):
                return False
        return True


def _state_row(items: Tuple[Item, ...], viol_cons: Optional[Item],
               m: np.ndarray, l: np.ndarray, cm, rooms: np.ndarray) -> np.ndarray:
    """AND of the state-level item masks, optionally times the consequent's
    state-level violation mask."""
    row = np.ones(m.shape[0], dtype=bool)
    for item in items:
        row &= state_present(item, m, l, cm, rooms)
    if viol_cons is not None:
        row &= state_conflict(viol_cons, m, l, cm, rooms)
        row &= ~state_present(viol_cons, m, l, cm, rooms)
    return row


def _grid_table(parts, cm, room_of_l: np.ndarray) -> np.ndarray:
    """(M·L, R) 0/1 table of the ``(items, viol_cons)`` state parts: row
    ``m·L + l`` evaluated at the candidate ``(m, l)``."""
    n_loc = len(cm.subloc_index)
    m = np.repeat(np.arange(cm.n_macro), n_loc)
    l = np.tile(np.arange(n_loc), cm.n_macro)
    rooms = room_of_l[l]
    table = np.zeros((m.shape[0], len(parts)))
    for r, (items, viol_cons) in enumerate(parts):
        table[:, r] = _state_row(items, viol_cons, m, l, cm, rooms)
    return table


_CACHE_LIMIT = 8192


class SingleRulePruner:
    """Per-user rule pruning as one gather per step.

    Column *r* of the grid table is rule *r*'s state-part violation mask;
    a candidate is kept iff no active rule's column covers it — exactly
    the seed's item-set check ``is_consistent(rule_set, state_items |
    amb)`` for single-user rule sets (which carry no exclusions).  The grid's keep-mask is memoised
    per gate key.
    """

    def __init__(self, rule_set: CorrelationRuleSet, cm, room_of_l: np.ndarray) -> None:
        self._n_loc = len(cm.subloc_index)
        self._keep_cache: Dict[tuple, np.ndarray] = {}
        parts: List[Tuple[Tuple[Item, ...], Optional[Item]]] = []
        self._rule_gates: List[_Gate] = []
        for rule in map(CompiledForcing, rule_set.forcing_rules):
            if rule.dead or rule.ant_u2:
                # Canonicalised single-user rules live on u1 + amb only.
                continue
            cons = rule.cons
            if cons.slot == "u1":
                if cons.attr in _SCALAR_ATTRS:
                    gate = _Gate(rule.ant_amb, rule.u1_scalar, (), 1, cons, None)
                    parts.append((rule.u1_vector, None))
                else:
                    gate = _Gate(rule.ant_amb, rule.u1_scalar, ())
                    parts.append((rule.u1_vector, cons))
            elif cons.slot == "amb":
                gate = _Gate(rule.ant_amb, rule.u1_scalar, (), 0, None, cons)
                parts.append((rule.u1_vector, None))
            else:
                # Other consequent slots can never be violated by one
                # user's items (open world) — no column.
                continue
            self._rule_gates.append(gate)
        self._table = _grid_table(parts, cm, room_of_l)

    def _grid_keep(self, amb: StepItems, obs: ResidentObservation) -> np.ndarray:
        key = (obs.posture, obs.gesture, amb.rooms, amb.objects)
        keep = self._keep_cache.get(key)
        if keep is None:
            gates = np.array(
                [1.0 if gate.active(amb, obs, None) else 0.0 for gate in self._rule_gates]
            )
            keep = self._table @ gates == 0.0
            if len(self._keep_cache) >= _CACHE_LIMIT:
                self._keep_cache.clear()
            self._keep_cache[key] = keep
        return keep

    def keep(
        self, m: np.ndarray, l: np.ndarray, obs: ResidentObservation, amb: StepItems
    ) -> np.ndarray:
        """(n,) mask of the candidates ``(m, l)`` consistent with the
        single-user rules."""
        return self._grid_keep(amb, obs)[m * self._n_loc + l]

    def keep_rows(
        self, m: np.ndarray, l: np.ndarray, obs: List[ResidentObservation], ambs: List[StepItems]
    ) -> np.ndarray:
        """(S, K) :meth:`keep` of padded candidate rows, one per step, as a
        single gather from the steps' stacked grid masks."""
        grids = np.stack([self._grid_keep(amb, o) for amb, o in zip(ambs, obs)])
        return np.take_along_axis(grids, m * self._n_loc + l, axis=1)


class CrossRulePruner:
    """Cross-user rule pruning as one gated matmul per step.

    Each prunable relation — a ``(u1, u2)`` exclusion, or a forcing
    rule whose consequent sits on one of the two slots — contributes a
    column to each of two grid tables, one per side: the joint state
    ``(i, j)`` is pruned when the rule's gate is open and both sides'
    state parts hold.  A step gathers each side's rows by candidate code,
    so the mask costs one ``(n1, R) @ (R, n2)`` product.

    Matches the seed's cross-user pruning
    (``decode_spec.reference_cross_prune_mask``) exactly, including
    its asymmetries: exclusions apply only when phrased as
    ``(u1, u2)``, and a forcing consequent on any other slot never prunes.
    """

    def __init__(self, rule_set: CorrelationRuleSet, cm, room_of_l: np.ndarray) -> None:
        self._n_loc = len(cm.subloc_index)
        self._gate_cache: Dict[tuple, np.ndarray] = {}
        parts1: List[Tuple[Tuple[Item, ...], Optional[Item]]] = []
        parts2: List[Tuple[Tuple[Item, ...], Optional[Item]]] = []
        self._rule_gates: List[_Gate] = []

        for excl in rule_set.exclusions:
            a, b = excl.a, excl.b
            if a.slot != "u1" or b.slot != "u2":
                continue
            items1 = (a,) if a.attr not in _SCALAR_ATTRS else ()
            items2 = (b,) if b.attr not in _SCALAR_ATTRS else ()
            gate = _Gate(
                (),
                (a,) if a.attr in _SCALAR_ATTRS else (),
                (b,) if b.attr in _SCALAR_ATTRS else (),
            )
            parts1.append((items1, None))
            parts2.append((items2, None))
            self._rule_gates.append(gate)

        for rule in map(CompiledForcing, rule_set.forcing_rules):
            cons = rule.cons
            if cons.slot not in ("u1", "u2"):
                continue
            viol1 = viol2 = None
            viol_side, viol_cons = 0, None
            if cons.attr in _SCALAR_ATTRS:
                viol_side = 1 if cons.slot == "u1" else 2
                viol_cons = cons
            elif cons.slot == "u1":
                viol1 = cons
            else:
                viol2 = cons
            gate = _Gate(rule.ant_amb, rule.u1_scalar, rule.u2_scalar, viol_side, viol_cons)
            parts1.append((rule.u1_vector, viol1))
            parts2.append((rule.u2_vector, viol2))
            self._rule_gates.append(gate)
        self._table1 = _grid_table(parts1, cm, room_of_l)
        self._table2 = _grid_table(parts2, cm, room_of_l)

    def _gates(
        self, amb: StepItems, obs1: ResidentObservation, obs2: ResidentObservation
    ) -> np.ndarray:
        key = (obs1.posture, obs1.gesture, obs2.posture, obs2.gesture, amb.rooms, amb.objects)
        gates = self._gate_cache.get(key)
        if gates is None:
            gates = np.array(
                [1.0 if gate.active(amb, obs1, obs2) else 0.0 for gate in self._rule_gates]
            )
            if len(self._gate_cache) >= _CACHE_LIMIT:
                self._gate_cache.clear()
            self._gate_cache[key] = gates
        return gates

    def keep(self, amb: StepItems, c1, c2) -> np.ndarray:
        """(|c1|, |c2|) mask of joint states consistent with the rules.

        ``c1`` / ``c2`` are :class:`~repro.core.state_space.CandidateSet`
        instances: their codes pick the table rows, their observations the
        gates.
        """
        rows1 = self._table1[c1.m * self._n_loc + c1.l]
        rows2 = self._table2[c2.m * self._n_loc + c2.l]
        hits = (rows1 * self._gates(amb, c1.obs, c2.obs)) @ rows2.T
        return hits == 0.0

    def keep_rows(self, ambs: List[StepItems], c1, c2) -> np.ndarray:
        """(S, K1, K2) :meth:`keep` of every step of two
        :class:`~repro.core.state_space.StackedCandidates`, as one batched
        gated matmul.  Every product counts whole rules, so its sums are
        exact in any order and each step's mask equals the one-step one."""
        gates = np.stack(
            [self._gates(amb, o1, o2) for amb, o1, o2 in zip(ambs, c1.obs, c2.obs)]
        )
        rows1 = self._table1[c1.m * self._n_loc + c1.l] * gates[:, None, :]
        rows2 = self._table2[c2.m * self._n_loc + c2.l]
        return rows1 @ rows2.transpose(0, 2, 1) == 0.0
