"""Rational Speech Acts layer over the evaluation engines.

Meanings are probabilities of truth, so vague sentences (generics in
particular) participate directly; boolean worlds recover the classical
conditioning that rules out falsifying states.  One level of recursion:
literal listener, pragmatic speaker, pragmatic listener.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .engine import evaluate
from .errors import AllFalse, NoViableUtterance
from .model import LiftScheme, SituationModel, VagueLexicon
from .scope import ScopeGraph

MASS_TOL = 1e-9


@dataclass(frozen=True)
class World:
    model: SituationModel
    lexicon: VagueLexicon
    scheme: LiftScheme = LiftScheme.INDEPENDENT


@dataclass(frozen=True)
class RsaState:
    id: str
    prior: float
    world: World


@dataclass(frozen=True)
class RsaUtterance:
    id: str
    graph: ScopeGraph
    cost: float = 0.0


@dataclass(frozen=True)
class RsaScenario:
    """States with priors, candidate utterances, and speaker rationality.

    ``alpha`` is the speaker rationality; ``math.inf`` means the
    maximizing speaker (uniform over argmax utterances).  ``engine``
    selects how utterance meanings are evaluated per state.
    """

    states: tuple[RsaState, ...]
    utterances: tuple[RsaUtterance, ...]
    alpha: float = math.inf
    engine: str = "exact"

    def __post_init__(self):
        if not self.states:
            raise ValueError("scenario needs at least one state")
        if not self.utterances:
            raise ValueError("scenario needs at least one utterance")
        total = math.fsum(s.prior for s in self.states)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"state priors sum to {total}, expected 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def state(self, state_id: str) -> RsaState:
        for s in self.states:
            if s.id == state_id:
                return s
        raise KeyError(f"unknown state {state_id!r}")

    def utterance(self, utterance_id: str) -> RsaUtterance:
        for u in self.utterances:
            if u.id == utterance_id:
                return u
        raise KeyError(f"unknown utterance {utterance_id!r}")


Posterior = dict[str, float]


def _normalize(weights: dict[str, float]) -> dict[str, float]:
    total = math.fsum(weights.values())
    return {k: w / total for k, w in weights.items()}


def meaning(scenario: RsaScenario, utterance: RsaUtterance, state: RsaState) -> float:
    """Root probability of the utterance in the state's world."""
    world = state.world
    return evaluate(
        utterance.graph, world.model, world.lexicon, scenario.engine, world.scheme
    ).probability


def meaning_matrix(scenario: RsaScenario) -> dict[str, dict[str, float]]:
    return {
        u.id: {s.id: meaning(scenario, u, s) for s in scenario.states}
        for u in scenario.utterances
    }


def literal_listener(scenario: RsaScenario, utterance_id: str) -> Posterior:
    """Condition the state prior on the utterance being true."""
    utterance = scenario.utterance(utterance_id)
    weights = {
        s.id: s.prior * meaning(scenario, utterance, s) for s in scenario.states
    }
    if math.fsum(weights.values()) <= 0.0:
        raise AllFalse(f"utterance {utterance_id!r} is false in every state")
    return _normalize(weights)


def pragmatic_speaker(scenario: RsaScenario, state_id: str) -> dict[str, float]:
    """Utterance choice maximizing literal-listener posterior minus cost.

    Finite alpha softmaxes the utilities; infinite alpha is uniform over
    the argmax set.  Utterances with zero literal posterior for the
    state are excluded.
    """
    state = scenario.state(state_id)
    utilities: dict[str, float] = {}
    for utterance in scenario.utterances:
        try:
            posterior = literal_listener(scenario, utterance.id)
        except AllFalse:
            continue
        if posterior.get(state_id, 0.0) <= 0.0:
            continue
        utilities[utterance.id] = math.log(posterior[state_id]) - utterance.cost
    if not utilities:
        raise NoViableUtterance(
            f"no utterance has positive literal posterior for state {state_id!r}"
        )
    if math.isinf(scenario.alpha):
        best = max(utilities.values())
        winners = [u for u, util in utilities.items() if util == best]
        return {
            u.id: (1.0 / len(winners) if u.id in winners else 0.0)
            for u in scenario.utterances
        }
    top = max(utilities.values())
    weights = {
        u: math.exp(scenario.alpha * (util - top)) for u, util in utilities.items()
    }
    dist = _normalize(weights)
    return {u.id: dist.get(u.id, 0.0) for u in scenario.utterances}


def pragmatic_listener(scenario: RsaScenario, utterance_id: str) -> Posterior:
    """Invert the pragmatic speaker over the state prior."""
    scenario.utterance(utterance_id)
    weights: dict[str, float] = {}
    for state in scenario.states:
        try:
            speaker = pragmatic_speaker(scenario, state.id)
        except NoViableUtterance:
            speaker = {}
        weights[state.id] = state.prior * speaker.get(utterance_id, 0.0)
    if math.fsum(weights.values()) <= 0.0:
        raise AllFalse(
            f"no state makes a pragmatic speaker say {utterance_id!r}"
        )
    return _normalize(weights)


def entropy(posterior: Posterior) -> float:
    """Shannon entropy in nats."""
    return -math.fsum(p * math.log(p) for p in posterior.values() if p > 0.0)


@dataclass(frozen=True)
class ReadingReport:
    """How the pragmatic posterior concentrates after an utterance."""

    posterior: Posterior
    entropy: float
    map_state: str


def reading_selector(scenario: RsaScenario, utterance_id: str) -> ReadingReport:
    """Pragmatic-listener posterior over (e.g.) feeding-proportion states.

    States that make the sentence false get zero mass; which surviving
    proportion dominates depends on the prior and the alternatives,
    selecting weak versus strong readings.
    """
    posterior = pragmatic_listener(scenario, utterance_id)
    map_state = max(posterior, key=lambda s: (posterior[s], s))
    return ReadingReport(posterior, entropy(posterior), map_state)
