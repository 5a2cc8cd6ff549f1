import dataclasses
import json
import math

import pytest

import quantale as q
from quantale import cli, rsa
from quantale.errors import AllFalse, NoViableUtterance
from quantale.rsa import entropy, meaning_matrix, pragmatic_speaker

from conftest import load_world, red_world


def load_scenario(fixtures_dir, name):
    return q.parse_scenario((fixtures_dir / name).read_text(), base_dir=fixtures_dir)


def boolean_scenario(alpha=math.inf, costs=(0.0, 0.0), never=False):
    """Two states, two utterances with crisp meanings.

    'narrow' is true only in state b; 'wide' is true in both.  With
    ``never``, a third utterance is false in both states.
    """
    model_a, lex_a = red_world(0.0)
    model_b, lex_b = red_world(1.0)
    narrow = q.parse_prop("(some (x) true (red x))")
    wide = q.parse_prop("true")
    contradiction = q.parse_prop("(and (some (x) true (red x)) (no (x) true (red x)))")
    return q.RsaScenario(
        states=(
            q.RsaState("a", 0.5, q.rsa.World(model_a, lex_a)),
            q.RsaState("b", 0.5, q.rsa.World(model_b, lex_b)),
        ),
        utterances=(
            q.RsaUtterance("narrow", narrow, costs[0]),
            q.RsaUtterance("wide", wide, costs[1]),
        )
        + ((q.RsaUtterance("never", contradiction),) if never else ()),
        alpha=alpha,
    )


def test_scenario_validation():
    scenario = boolean_scenario()
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, alpha=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(
            scenario,
            states=(dataclasses.replace(scenario.states[0], prior=0.9),)
            + scenario.states[1:],
        )
    with pytest.raises(ValueError):
        dataclasses.replace(scenario, utterances=())
    with pytest.raises(KeyError):
        scenario.state("nope")
    with pytest.raises(KeyError):
        scenario.utterance("nope")


@pytest.mark.parametrize("engine", ["mc", "exactt"])
def test_scenario_rejects_engines_meanings_cannot_use(engine):
    # mc needs a sample count and a seed per meaning; a typo is no engine
    with pytest.raises(ValueError, match="RSA engine must be one of"):
        dataclasses.replace(boolean_scenario(), engine=engine)
    for usable in rsa.ENGINES:
        assert dataclasses.replace(boolean_scenario(), engine=usable).engine == usable


def test_scenario_rejects_duplicate_ids():
    # every lookup by id would see only the first of two equal ids: with
    # both utterances named 'u', state a's speaker found no viable utterance
    scenario = boolean_scenario()
    false_in_a, true_in_a = scenario.utterances
    with pytest.raises(ValueError, match="duplicate utterance id 'u'"):
        dataclasses.replace(scenario, utterances=(
            dataclasses.replace(false_in_a, id="u"), dataclasses.replace(true_in_a, id="u")))
    with pytest.raises(ValueError, match="duplicate state id 's'"):
        dataclasses.replace(scenario, states=tuple(
            dataclasses.replace(s, id="s") for s in scenario.states))


def test_meaning_matrix_boolean():
    scenario = boolean_scenario()
    matrix = meaning_matrix(scenario)
    assert matrix == {
        "narrow": {"a": 0.0, "b": 1.0},
        "wide": {"a": 1.0, "b": 1.0},
    }


def test_literal_listener_conditions_on_truth():
    scenario = boolean_scenario()
    assert q.literal_listener(scenario, "narrow") == {"a": 0.0, "b": 1.0}
    assert q.literal_listener(scenario, "wide") == {"a": 0.5, "b": 0.5}


def test_literal_listener_all_false():
    model, lexicon = red_world(0.0)
    scenario = q.RsaScenario(
        states=(q.RsaState("a", 1.0, q.rsa.World(model, lexicon)),),
        utterances=(q.RsaUtterance("u", q.parse_prop("(some (x) true (red x))")),),
    )
    with pytest.raises(AllFalse):
        q.literal_listener(scenario, "u")


def test_pragmatic_speaker_argmax_at_infinite_alpha():
    scenario = boolean_scenario()
    assert pragmatic_speaker(scenario, "b") == {"narrow": 1.0, "wide": 0.0}
    # in state a only 'wide' is true
    assert pragmatic_speaker(scenario, "a") == {"narrow": 0.0, "wide": 1.0}


def test_pragmatic_speaker_softmax():
    scenario = boolean_scenario(alpha=1.0)
    dist = pragmatic_speaker(scenario, "b")
    # utilities: ln 1 = 0 for narrow, ln 0.5 for wide
    expect_narrow = 1.0 / (1.0 + 0.5)
    assert dist["narrow"] == pytest.approx(expect_narrow)
    assert dist["wide"] == pytest.approx(1.0 - expect_narrow)
    assert math.fsum(dist.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("cost", [math.inf, -math.inf, math.nan])
def test_scenario_rejects_non_finite_costs(cost):
    # an infinite cost makes every speaker utility -inf, and a softmax at
    # finite alpha over them gives NaN probabilities
    with pytest.raises(ValueError, match="'narrow' has a non-finite cost"):
        boolean_scenario(alpha=2.0, costs=(cost, 0.0))


@pytest.mark.parametrize("priors, costs, message", [
    ((-0.5, 1.5), (0.0, 0.0), "state 'a' has prior -0.5, not a non-negative number"),
    ((math.nan, 1.0), (0.0, 0.0), "state 'a' has prior nan, not a non-negative number"),
    ((1e308, 1e308), (0.0, 0.0), "state priors sum to inf ≠ 1"),
    ((0.5, 0.5), (-3.0, 0.0), "utterance 'narrow' has a negative cost"),
], ids=["negative-prior", "nan-prior", "overflowing-priors", "negative-cost"])
def test_scenario_refuses_negative_priors_and_costs(priors, costs, message):
    # a negative prior or cost would give a listener a "posterior" outside
    # [0, 1]; priors whose sum overflows are refused, not raised through
    scenario = boolean_scenario()
    states = tuple(dataclasses.replace(s, prior=p) for s, p in zip(scenario.states, priors))
    utterances = tuple(dataclasses.replace(u, cost=c) for u, c in zip(scenario.utterances, costs))
    with pytest.raises(ValueError) as caught:
        dataclasses.replace(scenario, states=states, utterances=utterances)
    assert str(caught.value) == message


def test_speaker_costs_shift_choice():
    # an expensive narrow utterance loses to wide at infinite alpha
    scenario = boolean_scenario(costs=(10.0, 0.0))
    assert pragmatic_speaker(scenario, "b") == {"narrow": 0.0, "wide": 1.0}


def test_no_viable_utterance():
    model_a, lex_a = red_world(0.0)
    scenario = q.RsaScenario(
        states=(
            q.RsaState("a", 0.5, q.rsa.World(model_a, lex_a)),
            q.RsaState("b", 0.5, q.rsa.World(*red_world(1.0))),
        ),
        utterances=(q.RsaUtterance("narrow", q.parse_prop("(some (x) true (red x))")),),
    )
    with pytest.raises(NoViableUtterance):
        pragmatic_speaker(scenario, "a")


def test_pragmatic_listener_boolean():
    scenario = boolean_scenario()
    assert q.pragmatic_listener(scenario, "narrow") == {"a": 0.0, "b": 1.0}
    # wide is only chosen in state a, so it now signals a
    assert q.pragmatic_listener(scenario, "wide") == {"a": 1.0, "b": 0.0}


def test_prevalence_scenario(fixtures_dir):
    scenario = load_scenario(fixtures_dir, "prevalence.scenario.json")
    l0 = q.literal_listener(scenario, "generic")
    assert l0["zero"] == 0.0
    assert l0["half"] == 1.0
    l1 = q.pragmatic_listener(scenario, "generic")
    assert l1["zero"] == 0.0
    assert l1["half"] == 1.0


def test_entropy():
    assert entropy({"a": 1.0, "b": 0.0}) == 0.0
    assert entropy({"a": 0.5, "b": 0.5}) == pytest.approx(math.log(2))


def test_reading_selector_donkey(fixtures_dir):
    scenario = load_scenario(fixtures_dir, "donkey.scenario.json")
    previous = math.inf
    for alpha in (1.0, 4.0, 32.0):
        report = q.reading_selector(
            dataclasses.replace(scenario, alpha=alpha), "donkey"
        )
        assert report.posterior["prop000"] == 0.0
        assert report.map_state == "prop100"
        assert report.entropy <= previous
        previous = report.entropy
    # at alpha 1 the posterior follows the speaker probabilities exactly
    report = q.reading_selector(scenario, "donkey")
    assert report.posterior["prop050"] == pytest.approx(3 / 7)
    assert report.posterior["prop100"] == pytest.approx(4 / 7)


def test_meaning_respects_engine_choice():
    scenario = dataclasses.replace(boolean_scenario(), engine="naive")
    matrix = meaning_matrix(scenario)
    assert matrix["narrow"] == {"a": 0.0, "b": 1.0}


def test_pragmatic_listener_with_an_utterance_false_everywhere():
    # 'never' has no literal listener, so no speaker picks it: L1 on the
    # other utterances is as without it, and L1 on 'never' itself is AllFalse
    scenario = boolean_scenario(never=True)
    assert q.pragmatic_listener(scenario, "narrow") == {"a": 0.0, "b": 1.0}
    assert q.pragmatic_listener(scenario, "wide") == {"a": 1.0, "b": 0.0}
    assert pragmatic_speaker(scenario, "a") == {"narrow": 0.0, "wide": 1.0, "never": 0.0}
    with pytest.raises(AllFalse, match="no state makes a pragmatic speaker say 'never'"):
        q.pragmatic_listener(scenario, "never")
    with pytest.raises(AllFalse, match="utterance 'never' is false in every state"):
        q.literal_listener(scenario, "never")


def test_pragmatic_listener_skips_a_state_where_no_utterance_is_true():
    # only 'narrow' is offered, and it is false in state a: no speaker
    # speaks in a, so a gets no pragmatic mass
    scenario = boolean_scenario()
    scenario = dataclasses.replace(scenario, utterances=scenario.utterances[:1])
    with pytest.raises(NoViableUtterance, match="for state 'a'"):
        pragmatic_speaker(scenario, "a")
    assert q.pragmatic_listener(scenario, "narrow") == {"a": 0.0, "b": 1.0}


def count_meanings(monkeypatch):
    """Record the (utterance, state) of every call to ``rsa.meaning``."""
    calls = []
    original = rsa.meaning

    def counted(scenario, utterance, state):
        calls.append((utterance.id, state.id))
        return original(scenario, utterance, state)

    monkeypatch.setattr(rsa, "meaning", counted)
    return calls


@pytest.mark.parametrize("name", ["boolean", "donkey.scenario.json"])
def test_each_agent_evaluates_each_meaning_once(monkeypatch, fixtures_dir, name):
    if name == "boolean":
        scenario = boolean_scenario(never=True)
    else:
        scenario = load_scenario(fixtures_dir, name)
    calls = count_meanings(monkeypatch)
    n_states, n_utterances = len(scenario.states), len(scenario.utterances)
    first = scenario.utterances[0].id
    agents = [
        (q.literal_listener, first, n_states),
        (pragmatic_speaker, scenario.states[-1].id, n_utterances * n_states),
        (q.pragmatic_listener, first, n_utterances * n_states),
        (lambda s, _: meaning_matrix(s), None, n_utterances * n_states),
    ]
    for agent, target, expected in agents:
        calls.clear()
        agent(scenario, target)
        assert len(calls) == len(set(calls)) == expected, agent


@pytest.mark.parametrize("name", ["donkey.scenario.json", "prevalence.scenario.json"])
def test_cli_verbose_reuses_the_agents_matrix(monkeypatch, capsys, fixtures_dir, name):
    scenario = load_scenario(fixtures_dir, name)
    calls = count_meanings(monkeypatch)
    for utterance in scenario.utterances:
        calls.clear()
        code = cli.main([
            "rsa", "--scenario", str(fixtures_dir / name), "--agent", "l1",
            "--utterance", utterance.id, "--verbose",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert len(calls) == len(set(calls)) == len(scenario.utterances) * len(scenario.states)
        assert set(json.loads(out)["meanings"]) == {u.id for u in scenario.utterances}


def test_alpha_sweep_over_one_matrix_evaluates_each_meaning_once(monkeypatch, fixtures_dir):
    scenario = load_scenario(fixtures_dir, "donkey.scenario.json")
    alphas = (1.0, 4.0, 32.0)
    fresh = [q.reading_selector(dataclasses.replace(scenario, alpha=a), "donkey")
             for a in alphas]
    calls = count_meanings(monkeypatch)
    matrix = q.MeaningMatrix(scenario)
    shared = [q.reading_selector(dataclasses.replace(scenario, alpha=a), "donkey", matrix)
              for a in alphas]
    # 2 utterances x 3 states, where a matrix per call made 18 calls
    assert len(calls) == len(set(calls)) == 6
    assert shared == fresh
    calls.clear()
    speaker = q.pragmatic_speaker(dataclasses.replace(scenario, alpha=2.0), "prop050", matrix)
    listener = q.pragmatic_listener(scenario, "donkey", matrix)
    assert calls == []
    assert speaker == pragmatic_speaker(dataclasses.replace(scenario, alpha=2.0), "prop050")
    assert listener == q.pragmatic_listener(scenario, "donkey")


def test_matrix_serves_only_scenarios_that_differ_in_alpha(fixtures_dir):
    scenario = load_scenario(fixtures_dir, "donkey.scenario.json")
    matrix = q.MeaningMatrix(scenario)
    for other in (dataclasses.replace(scenario, engine="naive"),
                  dataclasses.replace(scenario, utterances=scenario.utterances[:1]),
                  load_scenario(fixtures_dir, "prevalence.scenario.json")):
        with pytest.raises(ValueError, match="differ from its own in alpha"):
            q.reading_selector(other, "donkey", matrix)
