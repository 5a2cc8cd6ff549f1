"""Rational Speech Acts layer over the evaluation engines.

Meanings are probabilities of truth, so vague sentences (generics in
particular) participate directly; boolean worlds recover the classical
conditioning that rules out falsifying states.  Each agent call evaluates
the meaning matrix M (utterances x states) at most once per entry and runs
L0 = rownorm(prior * M), S1 = softmax_u(alpha (log L0 - cost)) and
L1 = rownorm(prior * S1) over it: S engine calls for L0, U * S for S1 and L1.
Agent calls given one ``MeaningMatrix`` share its entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import EXACT, GENERIC_FAST, NAIVE, evaluate
from .errors import AllFalse, InvalidScenario, NoViableUtterance
from .model import MASS_TOL, LiftScheme, SituationModel, VagueLexicon
from .scope import ScopeGraph

# deterministic engines; mc would need a sample count and a seed per meaning
ENGINES = (NAIVE, EXACT, GENERIC_FAST)


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
    maximizing speaker (uniform over argmax utterances).  ``engine``, one
    of ``ENGINES``, selects how utterance meanings are evaluated per state.
    Ids are unique, priors non-negative summing to 1 within ``MASS_TOL``,
    costs finite and non-negative; ``InvalidScenario`` lists every fault at
    its index path into the fields, such as ``("states", k, "prior")``.
    """

    states: tuple[RsaState, ...]
    utterances: tuple[RsaUtterance, ...]
    alpha: float = math.inf
    engine: str = EXACT

    def __post_init__(self):
        faults = []
        for field, items in (("states", self.states), ("utterances", self.utterances)):
            first = {}
            for k, x in enumerate(items):
                if first.setdefault(x.id, k) != k:
                    faults.append((f"duplicate {field[:-1]} id {x.id!r}", (field, k, "id")))
                if field == "states" and not x.prior >= 0.0:  # negative or NaN
                    faults.append((f"state {x.id!r} has prior {x.prior!r}, not a non-negative "
                                   "number", (field, k, "prior")))
                elif field == "utterances" and not 0.0 <= x.cost < math.inf:
                    what = "negative" if math.isfinite(x.cost) else "non-finite"
                    faults.append((f"utterance {x.id!r} has a {what} cost", (field, k, "cost")))
            if not items:
                faults.append((f"scenario needs at least one {field[:-1]}", (field,)))
            elif field == "states" and not faults:  # a total over faulty states says nothing
                try:
                    total = math.fsum(s.prior for s in items)
                except OverflowError:  # finite priors whose sum exceeds the largest float
                    total = math.inf
                if abs(total - 1.0) > MASS_TOL:
                    faults.append((f"state priors sum to {total:.12g} ≠ 1", (field,)))
        if not self.alpha > 0:
            faults.append(("alpha must be positive", ("alpha",)))
        if self.engine not in ENGINES:
            faults.append((f"RSA engine must be one of {ENGINES}, not {self.engine!r}",
                           ("engine",)))
        if faults:
            raise InvalidScenario(faults)

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


class MeaningMatrix:
    """Meanings M[u][s] of one scenario, each row evaluated on first use, and
    the agents of the same names over them.  It caches nothing beyond its
    own lifetime; agent calls that share one matrix, such as an alpha sweep
    through ``at``, evaluate each meaning once between them."""

    def __init__(self, scenario: RsaScenario):
        self.scenario = scenario
        self._rows: dict[str, dict[str, float]] = {}

    def at(self, scenario: RsaScenario) -> MeaningMatrix:
        """The agents of ``scenario`` over this matrix's meanings, which the
        two share; ``scenario`` may differ from this one in alpha only."""
        own = self.scenario
        if (scenario.states, scenario.utterances, scenario.engine) != (
            own.states, own.utterances, own.engine
        ):
            raise ValueError("a meaning matrix serves only scenarios that differ "
                             "from its own in alpha")
        view = MeaningMatrix(scenario)
        view._rows = self._rows
        return view

    def row(self, u: RsaUtterance) -> dict[str, float]:
        if u.id not in self._rows:
            scenario = self.scenario
            self._rows[u.id] = {s.id: meaning(scenario, u, s) for s in scenario.states}
        return self._rows[u.id]

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {u.id: self.row(u) for u in self.scenario.utterances}

    def literal_listener(self, utterance_id: str) -> Posterior:
        row = self.row(self.scenario.utterance(utterance_id))
        weights = {s.id: s.prior * row[s.id] for s in self.scenario.states}
        if math.fsum(weights.values()) <= 0.0:
            raise AllFalse(f"utterance {utterance_id!r} is false in every state")
        return _normalize(weights)

    def pragmatic_speaker(self, state_id: str) -> dict[str, float]:
        scenario = self.scenario
        scenario.state(state_id)
        utilities: dict[str, float] = {}
        for utterance in scenario.utterances:
            try:
                posterior = self.literal_listener(utterance.id)
            except AllFalse:
                continue
            if posterior[state_id] <= 0.0:
                continue
            utilities[utterance.id] = math.log(posterior[state_id]) - utterance.cost
        if not utilities:
            raise NoViableUtterance(
                f"no utterance has positive literal posterior for state {state_id!r}"
            )
        top = max(utilities.values())
        if math.isinf(scenario.alpha):
            winners = [u for u, util in utilities.items() if util == top]
            dist = {u: 1.0 / len(winners) for u in winners}
        else:
            scaled = {u: scenario.alpha * (v - top) for u, v in utilities.items()}
            dist = _normalize({u: math.exp(x) for u, x in scaled.items()})
        return {u.id: dist.get(u.id, 0.0) for u in scenario.utterances}

    def pragmatic_listener(self, utterance_id: str) -> Posterior:
        self.scenario.utterance(utterance_id)
        weights: dict[str, float] = {}
        for state in self.scenario.states:
            try:
                speaker = self.pragmatic_speaker(state.id)
            except NoViableUtterance:
                speaker = {}
            weights[state.id] = state.prior * speaker.get(utterance_id, 0.0)
        if math.fsum(weights.values()) <= 0.0:
            raise AllFalse(f"no state makes a pragmatic speaker say {utterance_id!r}")
        return _normalize(weights)


def meaning_matrix(scenario: RsaScenario) -> dict[str, dict[str, float]]:
    return MeaningMatrix(scenario).as_dict()


def _agents(scenario: RsaScenario, matrix: MeaningMatrix | None) -> MeaningMatrix:
    return MeaningMatrix(scenario) if matrix is None else matrix.at(scenario)


def literal_listener(scenario: RsaScenario, utterance_id: str) -> Posterior:
    """Condition the state prior on the utterance being true."""
    return MeaningMatrix(scenario).literal_listener(utterance_id)


def pragmatic_speaker(scenario: RsaScenario, state_id: str,
                      matrix: MeaningMatrix | None = None) -> dict[str, float]:
    """Utterance choice maximizing literal-listener posterior minus cost:
    a softmax at finite alpha, uniform over the argmax at infinite alpha,
    excluding utterances with zero literal posterior for the state.  Like
    the agents below, it reads the meanings of ``matrix`` when given one
    (see ``MeaningMatrix.at``) and evaluates its own otherwise."""
    return _agents(scenario, matrix).pragmatic_speaker(state_id)


def pragmatic_listener(scenario: RsaScenario, utterance_id: str,
                       matrix: MeaningMatrix | None = None) -> Posterior:
    """Invert the pragmatic speaker over the state prior."""
    return _agents(scenario, matrix).pragmatic_listener(utterance_id)


def entropy(posterior: Posterior) -> float:
    """Shannon entropy in nats."""
    return -math.fsum(p * math.log(p) for p in posterior.values() if p > 0.0)


@dataclass(frozen=True)
class ReadingReport:
    """How the pragmatic posterior concentrates after an utterance."""

    posterior: Posterior
    entropy: float
    map_state: str


def reading_selector(scenario: RsaScenario, utterance_id: str,
                     matrix: MeaningMatrix | None = None) -> ReadingReport:
    """Pragmatic-listener posterior over (e.g.) feeding-proportion states.

    States that make the sentence false get zero mass; which surviving
    proportion dominates depends on the prior and the alternatives,
    selecting weak versus strong readings.  A sweep over alpha can pass
    one ``matrix`` to every call, so each meaning is evaluated once.
    """
    posterior = pragmatic_listener(scenario, utterance_id, matrix)
    map_state = max(posterior, key=lambda s: (posterior[s], s))
    return ReadingReport(posterior, entropy(posterior), map_state)
