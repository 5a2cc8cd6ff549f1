"""Command-line front end.

JSON results go to standard out, human-readable diagnostics to standard
error.  Exit codes: 0 success, 1 input diagnostics, 2 evaluation errors.
Identical invocations (including seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import engine as _engine
from . import rsa as _rsa
from .dsl import parse_prop, parse_scenario, parse_world
from .errors import DslParseError, QuantaleError, ValidationFailed
from .model import LiftScheme
from .quant import QuantifierKind, shape_values
from .scope import validated_order

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_EVALUATION = 2


def _emit(document) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")


def _diag_json(diagnostics):
    return [{"message": d, "severity": "error"} if isinstance(d, str)
            else dataclasses.asdict(d) for d in diagnostics]


def _load_inputs(args):
    world_text = Path(args.world).read_text()
    prop_text = Path(args.prop).read_text()
    model, lexicon = parse_world(world_text)
    graph = parse_prop(prop_text)
    return model, lexicon, graph


def _mc_seed(args) -> int:
    """The mc engine's seed, from ``--seed`` or else ``QUANTALE_SEED``.

    Raises QuantaleError when it or ``--samples`` is missing or out of range.
    """
    seed = args.seed
    env = os.environ.get("QUANTALE_SEED")
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise QuantaleError(f"QUANTALE_SEED must be an integer, got {env!r}") from None
    if args.samples is None or seed is None:
        raise QuantaleError("the mc engine requires --samples and --seed (or QUANTALE_SEED)")
    if args.samples < 1:
        raise QuantaleError(f"--samples must be at least 1, got {args.samples}")
    if seed < 0:
        raise QuantaleError(f"the seed must be non-negative, got {seed}")
    return seed


def cmd_eval(args) -> int:
    model, lexicon, graph = _load_inputs(args)
    scheme = LiftScheme(args.scheme or LiftScheme.INDEPENDENT.value)
    if args.engine in (_engine.NAIVE, _engine.GENERIC_FAST) and args.scheme is not None:
        print(
            f"warning: --scheme is ignored by the {args.engine} engine",
            file=sys.stderr,
        )
    for flag, cap in (("--cap-configs", args.cap_configs),
                      ("--cap-vague-nodes", args.cap_vague_nodes)):
        if cap < 0:
            raise QuantaleError(f"{flag} must be non-negative, got {cap}")
    limits = _engine.EngineLimits(args.cap_configs, args.cap_vague_nodes)
    seed = _mc_seed(args) if args.engine == _engine.MONTE_CARLO else None
    result = _engine.evaluate(
        graph, model, lexicon, args.engine, scheme, limits,
        samples=args.samples, seed=seed,
    )
    document = {"probability": result.probability, "engine": result.engine}
    if result.engine in (_engine.EXACT, _engine.MONTE_CARLO):
        document["scheme"] = scheme.value
    if result.ci is not None:
        document["ci"] = list(result.ci)
    if result.samples is not None:
        document["samples"] = result.samples
    if result.seed is not None:
        document["seed"] = result.seed
    if args.output == "csv":
        keys = sorted(document)
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join(json.dumps(document[k]) for k in keys) + "\n")
    else:
        _emit(document)
    return EXIT_OK


def cmd_curve(args) -> int:
    try:
        kind = QuantifierKind(args.kind)
    except ValueError:
        print(f"error: unknown quantifier kind {args.kind!r}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    if args.points < 2:
        print("error: --points must be at least 2", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    sys.stdout.write("ratio,value\n")
    for start in range(0, args.points, _engine.CHUNK_CELLS):  # in bounded memory
        # i / (points - 1), correctly rounded as Python's int division is
        ratios = np.arange(start, min(start + _engine.CHUNK_CELLS, args.points)) / (args.points - 1)
        values = shape_values(kind, ratios).tolist()
        sys.stdout.writelines(f"{r!r},{v!r}\n" for r, v in zip(ratios.tolist(), values))
    return EXIT_OK


def cmd_rsa(args) -> int:
    path = Path(args.scenario)
    scenario = parse_scenario(path.read_text(), base_dir=path.parent)
    matrix = _rsa.MeaningMatrix(scenario)
    option, agent, outcomes = {
        "l0": ("utterance", matrix.literal_listener, scenario.states),
        "s1": ("state", matrix.pragmatic_speaker, scenario.utterances),
        "l1": ("utterance", matrix.pragmatic_listener, scenario.states),
    }[args.agent]
    target = getattr(args, option)
    if target is None:
        print(f"error: --{option} is required for {args.agent}", file=sys.stderr)
        return EXIT_EVALUATION
    try:
        dist = agent(target)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_DIAGNOSTICS

    support = [o.id for o in outcomes]
    document = {"support": support, "probs": [dist.get(s, 0.0) for s in support]}
    if args.verbose:
        document["meanings"] = matrix.as_dict()
    _emit(document)
    return EXIT_OK


def cmd_check(args) -> int:
    model, lexicon, graph = _load_inputs(args)
    validated_order(graph, model, lexicon)  # raises ValidationFailed
    _emit([])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantale",
        description="Evaluate probabilistic quantified propositions over "
        "finite pixie-space worlds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a proposition in a world")
    p_eval.add_argument("--world", required=True)
    p_eval.add_argument("--prop", required=True)
    p_eval.add_argument("--engine", choices=_engine.ENGINES, default=_engine.EXACT)
    p_eval.add_argument("--scheme", choices=[s.value for s in LiftScheme], default=None)
    p_eval.add_argument("--samples", type=int, default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--output", choices=["json", "csv"], default="json")
    p_eval.add_argument("--cap-configs", type=int, default=_engine.DEFAULT_CONFIG_CAP)
    p_eval.add_argument(
        "--cap-vague-nodes", type=int, default=_engine.DEFAULT_VAGUE_NODE_CAP
    )
    p_eval.set_defaults(func=cmd_eval)

    p_curve = sub.add_parser("curve", help="emit a quantifier shape as CSV")
    p_curve.add_argument("--kind", required=True)
    p_curve.add_argument("--points", type=int, required=True)
    p_curve.set_defaults(func=cmd_curve)

    p_rsa = sub.add_parser("rsa", help="run an RSA agent over a scenario")
    p_rsa.add_argument("--scenario", required=True)
    p_rsa.add_argument("--agent", choices=["l0", "s1", "l1"], required=True)
    p_rsa.add_argument("--utterance", default=None)
    p_rsa.add_argument("--state", default=None)
    p_rsa.add_argument("--verbose", action="store_true")
    p_rsa.set_defaults(func=cmd_rsa)

    p_check = sub.add_parser("check", help="parse and validate inputs")
    p_check.add_argument("--world", required=True)
    p_check.add_argument("--prop", required=True)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except (DslParseError, ValidationFailed) as exc:
        for d in exc.diagnostics:
            print(f"error: {d}" if isinstance(d, str) else d, file=sys.stderr)
        diagnostics = _diag_json(exc.diagnostics)
        _emit(diagnostics if args.command == "check" else {"diagnostics": diagnostics})
        return EXIT_DIAGNOSTICS
    except QuantaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    sys.exit(main())
