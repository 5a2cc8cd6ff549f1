"""Weak and strong donkey readings under pragmatic inference.

"Every farmer who owns a donkey feeds it" evaluates, under the shared
scope DAG in fixtures/donkey.prop, to the minimum feeding proportion
across farmers.  Running the pragmatic listener over worlds with
different proportions shows how the posterior shifts with the speaker
rationality alpha: higher alpha concentrates mass on the strong (feed
them all) reading while the weak reading keeps some support.

Usage: python scripts/donkey_readings.py [--alphas 1 4 32]
"""

import argparse
import dataclasses
from pathlib import Path

import quantale as q

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alphas", type=float, nargs="+", default=[1.0, 4.0, 32.0])
    args = parser.parse_args()

    scenario = q.parse_scenario(
        (FIXTURES / "donkey.scenario.json").read_text(), base_dir=FIXTURES
    )
    print("literal meanings (proportion of owned donkeys fed, per state):")
    donkey = scenario.utterance("donkey")
    for state in scenario.states:
        value = q.rsa.meaning(scenario, donkey, state)
        print(f"  {state.id}: {value:.3f}")
    print()
    print(f"{'alpha':>6} {'P(prop000)':>11} {'P(prop050)':>11} {'P(prop100)':>11} "
          f"{'entropy':>8} {'MAP':>8}")
    matrix = q.MeaningMatrix(scenario)  # meanings do not depend on alpha
    for alpha in args.alphas:
        report = q.reading_selector(
            dataclasses.replace(scenario, alpha=alpha), "donkey", matrix
        )
        p = report.posterior
        print(
            f"{alpha:>6g} {p['prop000']:>11.4f} {p['prop050']:>11.4f} "
            f"{p['prop100']:>11.4f} {report.entropy:>8.4f} {report.map_state:>8}"
        )


if __name__ == "__main__":
    main()
