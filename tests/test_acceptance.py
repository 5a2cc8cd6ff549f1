"""End-to-end acceptance suite.

Each test prints one pass/fail line (with its runtime) straight to the
terminal and enforces the runtime budget it states.
"""

import contextlib
import math
import random
import time

import quantale as q
from quantale.cli import main as cli_main

from conftest import FIXTURES, load_prop, load_world, quant_over_tautology, red_world
from oracles import classical_root, random_classical_case, random_generic_case, random_tree

SEED = 20260823


@contextlib.contextmanager
def criterion(capsys, number, name, limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"criterion {number:2d} ({name}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit else "FAIL"
    with capsys.disabled():
        print(
            f"criterion {number:2d} ({name}): {status} "
            f"in {elapsed:.2f}s (limit {limit:g}s)"
        )
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_naive_triviality(capsys):
    with criterion(capsys, 1, "naive triviality", 1.0):
        for p in (0.1, 0.5, 0.9):
            model, lexicon = red_world(p)
            every = q.eval_naive(quant_over_tautology("every"), model, lexicon)
            some = q.eval_naive(quant_over_tautology("some"), model, lexicon)
            assert every.probability == 0.0
            assert some.probability == 1.0


def test_criterion_02_corrected_semantics(capsys):
    with criterion(capsys, 2, "corrected semantics", 1.0):
        for p in (0.1, 0.5, 0.9):
            model, lexicon = red_world(p)
            for kind in ("every", "some"):
                for scheme in q.LiftScheme:
                    got = q.eval_exact(
                        quant_over_tautology(kind), model, lexicon, scheme
                    ).probability
                    assert abs(got - p) <= 1e-12, (p, kind, scheme)


def test_criterion_03_classical_equivalence(capsys):
    with criterion(capsys, 3, "classical equivalence", 30.0):
        rng = random.Random(SEED)
        for _ in range(250):
            model, lexicon, graph, domains, truth = random_classical_case(rng)
            expected = 1.0 if classical_root(graph, domains, truth) else 0.0
            got = q.eval_exact(graph, model, lexicon).probability
            assert got == expected


def test_criterion_04_generic_fast_identity(capsys):
    with criterion(capsys, 4, "generic fast-path identity", 10.0):
        rng = random.Random(SEED + 1)
        for _ in range(120):
            model, lexicon, graph, expected = random_generic_case(rng)
            got = q.eval_generic_fast(graph, model, lexicon).probability
            assert abs(got - expected) <= 1e-12


def test_criterion_05_generic_gap_recorded(capsys):
    with criterion(capsys, 5, "exact vs fast generic gap", 30.0):
        model, lexicon = load_world("dog_barks.world.json")
        graph = load_prop("dog_barks.prop")
        report = q.compare_generic(graph, model, lexicon)
        assert math.isfinite(report.gap)
        assert report.fast == 0.8
        rng = random.Random(SEED + 2)
        for _ in range(25):
            model, lexicon, graph, _ = random_generic_case(rng)
            first = q.compare_generic(graph, model, lexicon)
            second = q.compare_generic(graph, model, lexicon)
            assert math.isfinite(first.gap)
            assert first.gap == abs(first.exact - first.fast)
            assert first == second


def test_criterion_06_threshold_marginal(capsys):
    with criterion(capsys, 6, "threshold-marginal identity", 10.0):
        rng = random.Random(SEED + 3)
        kinds = [q.QuantifierKind.MANY, q.QuantifierKind.FEW, q.QuantifierKind.GENERIC]
        for kind in kinds:
            for _ in range(60):
                n_pix = rng.randint(2, 4)
                pixies = tuple(f"p{i}" for i in range(n_pix))
                weights = [rng.random() + 0.05 for _ in pixies]
                total = sum(weights)
                model = q.SituationModel(
                    q.PixieSpace(pixies),
                    ("x",),
                    tuple(((px,), w / total) for px, w in zip(pixies, weights)),
                )
                restr = {px: 1.0 for px in pixies if rng.random() < 0.7}
                body = {px: 1.0 for px in pixies if rng.random() < 0.5}
                lexicon = q.VagueLexicon(
                    {"r": q.VaguePredicate("r", restr), "b": q.VaguePredicate("b", body)}
                )
                nodes = (
                    q.Application("r", "x"),
                    q.Application("b", "x"),
                    q.Quantifier(kind, ("x",), 0, 1),
                )
                graph = q.ScopeGraph(nodes, root=2)
                den = math.fsum(m for (px,), m in model.joint if px in restr)
                num = math.fsum(
                    m for (px,), m in model.joint if px in restr and px in body
                )
                if den == 0.0:
                    expected = q.empty_restriction_value(kind)
                else:
                    expected = q.shape_value(kind, num / den)
                got = q.eval_exact(graph, model, lexicon).probability
                assert abs(got - expected) <= 1e-12, kind


def test_criterion_07_donkey_readings(capsys, donkey_graph):
    with criterion(capsys, 7, "donkey minimum proportion", 5.0):
        half = load_world("donkey_half.world.json")
        threequarters = load_world("donkey_threequarters.world.json")
        assert q.eval_exact(donkey_graph, *half).probability == 0.5
        assert q.eval_exact(donkey_graph, *threequarters).probability == 0.75


def test_criterion_08_mc_ci_coverage(capsys, donkey_graph):
    with criterion(capsys, 8, "MC confidence-interval coverage", 60.0):
        cases = []
        for p in (0.1, 0.5, 0.9):
            model, lexicon = red_world(p)
            cases.append((quant_over_tautology("every"), model, lexicon, p))
        model, lexicon = load_world("donkey_half.world.json")
        cases.append((donkey_graph, model, lexicon, 0.5))
        for graph, model, lexicon, exact in cases:
            hits = 0
            for seed in range(100):
                result = q.eval_mc(graph, model, lexicon, samples=10000, seed=seed)
                lo, hi = result.ci
                if lo <= exact <= hi:
                    hits += 1
            assert hits >= 93, (exact, hits)


def test_criterion_09_rsa_behavior(capsys):
    import dataclasses

    with criterion(capsys, 9, "RSA prevalence and donkey readings", 5.0):
        prevalence = q.parse_scenario(
            (FIXTURES / "prevalence.scenario.json").read_text(), base_dir=FIXTURES
        )
        l0 = q.literal_listener(prevalence, "generic")
        assert l0["zero"] == 0.0
        l1 = q.pragmatic_listener(prevalence, "generic")
        assert l1["zero"] == 0.0
        assert l1["half"] > 0.99

        donkey = q.parse_scenario(
            (FIXTURES / "donkey.scenario.json").read_text(), base_dir=FIXTURES
        )
        previous = math.inf
        matrix = q.MeaningMatrix(donkey)  # meanings do not depend on alpha
        for alpha in (1.0, 4.0, 32.0):
            report = q.reading_selector(
                dataclasses.replace(donkey, alpha=alpha), "donkey", matrix
            )
            assert report.posterior["prop000"] == 0.0
            assert report.entropy <= previous
            previous = report.entropy


def test_criterion_10_determinism_and_round_trip(capsys):
    with criterion(capsys, 10, "determinism and round-trip", 10.0):
        argv = [
            "eval",
            "--world", str(FIXTURES / "donkey_half.world.json"),
            "--prop", str(FIXTURES / "donkey.prop"),
            "--engine", "mc",
            "--samples", "2000",
            "--seed", "5",
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")

        for path in sorted(FIXTURES.glob("*.world.json")):
            text = path.read_text()
            model, lexicon = q.parse_world(text)
            assert q.serialize_world(model, lexicon) == text, path.name
        for path in sorted(FIXTURES.glob("*.prop")):
            graph = q.parse_prop(path.read_text())
            canonical = q.serialize_prop(graph)
            assert q.serialize_prop(q.parse_prop(canonical)) == canonical, path.name

        rng = random.Random(SEED + 4)
        for _ in range(250):
            graph = random_tree(rng, tuple("xyz"[: rng.randint(1, 3)]))
            text = q.serialize_prop(graph)
            assert q.serialize_prop(q.parse_prop(text)) == text
        for _ in range(250):
            model, lexicon, _, _, _ = random_classical_case(rng)
            text = q.serialize_world(model, lexicon)
            again_model, again_lexicon = q.parse_world(text)
            assert q.serialize_world(again_model, again_lexicon) == text


def test_criterion_11_unused_pixies_do_not_cost(capsys, donkey_graph):
    # donkey_half padded with 200 pixies no joint row uses: the joint
    # keeps its 8 rows while the dense |P|^3 domain grows to about 8M cells.
    # With `entity` = 0.5 on every pad, no row reads a fractional entry, so
    # the lift has nothing to enumerate (2^200 coins if it lifted them all).
    model, lexicon = load_world("donkey_half.world.json")
    pads = tuple(f"pad{i}" for i in range(200))
    padded = q.SituationModel(
        q.PixieSpace(model.space.elements + pads), model.variables, model.joint,
    )
    entity = lexicon.predicates["entity"]
    vague_pads = q.VagueLexicon({
        **lexicon.predicates,
        "entity": q.VaguePredicate("entity", {**entity.table, **dict.fromkeys(pads, 0.5)}),
    })
    with criterion(capsys, 11, "exact cost follows joint rows", 5.0):
        assert q.eval_exact(donkey_graph, padded, lexicon).probability == 0.5
        for scheme in q.LiftScheme:
            result = q.eval_exact(donkey_graph, padded, vague_pads, scheme)
            assert result.probability == 0.5
