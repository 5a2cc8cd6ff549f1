"""Seeded input generators for the benchmark workloads.

Everything here is pure Python and independent of the package under test:
a generator returns plain data (ownership sets, predicate tables) and the
text the package's parsers receive.  The same seed always gives the same
inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# ``most`` is left out of the timed cycles: over 7 uniform pixies a ratio of
# exactly 1/2 hits the known most-breakpoint defect.  The traced run gauges
# that defect on its own (``MOST_PROBE_WORLDS`` in ``run.py``).  One step
# kind and three proportional ones: step kinds cost about 3/4 as much, and
# with two of each the median latency would fall in the gap between them.
VAGUE_KINDS = ("every", "few", "many", "generic")
SCHEMES = ("independent", "coupled-threshold")
RSA_VARIANTS = ("every", "most", "some")


def rng_for(workload: str, seed: int, stream: int = 0) -> random.Random:
    # Integer seeding is stable across processes and Python versions.
    tag = sum((i + 1) * ord(c) for i, c in enumerate(workload))
    return random.Random(seed * 1_000_003 + tag * 101 + stream)


def world_json(pixies, variables, rows, predicates) -> str:
    """World-file text in the fixtures' layout (sorted keys, indent 2)."""
    doc = {
        "pixies": list(pixies),
        "variables": list(variables),
        "joint": [{"assign": dict(zip(variables, a)), "prob": p} for a, p in rows],
        "predicates": predicates,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- farmer x donkey worlds ---------------------------------------------------

@dataclass(frozen=True)
class DonkeyWorld:
    """One joint row per farmer-donkey pair with uniform mass."""

    farmers: tuple[str, ...]
    donkeys: tuple[str, ...]
    owned: dict[str, frozenset[str]]
    fed: dict[str, frozenset[str]]  # always a subset of ``owned``

    @property
    def pixies(self) -> tuple[str, ...]:
        return self.donkeys + self.farmers + ("no_feed", "no_own", "yes_feed", "yes_own")

    def text(self) -> str:
        mass = 1.0 / (len(self.farmers) * len(self.donkeys))
        rows = []
        for f in self.farmers:
            for d in self.donkeys:
                own = "yes_own" if d in self.owned[f] else "no_own"
                feed = "yes_feed" if d in self.fed[f] else "no_feed"
                rows.append(((feed, f, own, d), mass))
        predicates = {
            "donkey": {d: 1.0 for d in self.donkeys},
            "entity": {p: 1.0 for p in self.pixies},
            "farmer": {f: 1.0 for f in self.farmers},
            "feed": {"yes_feed": 1.0},
            "own": {"yes_own": 1.0},
        }
        return world_json(self.pixies, ("w", "x", "y", "z"), rows, predicates)


def donkey_world_from_doc(doc: dict) -> DonkeyWorld:
    """Ownership and feeding read from a farmer x donkey world document."""
    farmers = tuple(sorted(doc["predicates"]["farmer"]))
    donkeys = tuple(sorted(doc["predicates"]["donkey"]))
    owned = {f: set() for f in farmers}
    fed = {f: set() for f in farmers}
    for row in doc["joint"]:
        a = row["assign"]
        if a["y"] == "yes_own":
            owned[a["x"]].add(a["z"])
            if a["w"] == "yes_feed":
                fed[a["x"]].add(a["z"])
    return DonkeyWorld(farmers, donkeys, {f: frozenset(v) for f, v in owned.items()},
                       {f: frozenset(v) for f, v in fed.items()})


def donkey_world(rng: random.Random, n_farmers: int, n_donkeys: int,
                 own_p: float, feed_rate=None) -> DonkeyWorld:
    """Random ownership (every farmer owns at least one donkey) and feeding.

    ``feed_rate`` fixes the chance that an owned donkey is fed; when None
    each farmer draws a rate in [0.25, 1].
    """
    farmers = tuple(f"f{i}" for i in range(1, n_farmers + 1))
    donkeys = tuple(f"d{i}" for i in range(1, n_donkeys + 1))
    owned, fed = {}, {}
    for f in farmers:
        own = {d for d in donkeys if rng.random() < own_p}
        if not own:
            own = {rng.choice(donkeys)}
        rate = rng.uniform(0.25, 1.0) if feed_rate is None else feed_rate
        owned[f] = frozenset(own)
        fed[f] = frozenset(d for d in sorted(own) if rng.random() < rate)
    return DonkeyWorld(farmers, donkeys, owned, fed)


# --- one-variable vague worlds ------------------------------------------------

@dataclass(frozen=True)
class VagueWorld:
    """Uniform mass over the pixies; ``r`` and ``b`` tables in [0, 1]."""

    r: tuple[float, ...]
    b: tuple[float, ...]

    @property
    def pixies(self) -> tuple[str, ...]:
        return tuple(f"p{i}" for i in range(1, len(self.r) + 1))

    @property
    def fractional_entries(self) -> int:
        return sum(0.0 < v < 1.0 for v in self.r + self.b)

    def text(self) -> str:
        pix = self.pixies
        mass = 1.0 / len(pix)
        rows = [((p,), mass) for p in pix]
        predicates = {
            "r": {p: v for p, v in zip(pix, self.r) if v > 0.0},
            "b": {p: v for p, v in zip(pix, self.b) if v > 0.0},
        }
        return world_json(pix, ("x",), rows, predicates)


def vague_world(rng: random.Random, n_pixies: int = 7) -> VagueWorld:
    """Every r/b entry fractional, k/256 with k in [1, 255]."""
    draw = lambda: tuple(rng.randint(1, 255) / 256 for _ in range(n_pixies))  # noqa: E731
    return VagueWorld(draw(), draw())


def ladder_world(rng: random.Random, n_fractional: int, n_pixies: int = 8) -> VagueWorld:
    """``n_fractional`` fractional entries split over r then b; the rest are 1."""
    r = [1.0] * n_pixies
    b = [1.0] * n_pixies
    slots = [(r, i) for i in range(n_pixies)] + [(b, i) for i in range(n_pixies)]
    for table, i in slots[:n_fractional]:
        table[i] = rng.randint(1, 255) / 256
    return VagueWorld(tuple(r), tuple(b))


def quantifier_prop(kind: str) -> str:
    return f"({kind} (x) (r x) (b x))\n"


# --- RSA scenario -------------------------------------------------------------

def rsa_states(rng: random.Random, n_states: int = 5, n_farmers: int = 4,
               n_donkeys: int = 6) -> list[DonkeyWorld]:
    """State k feeds each owned donkey with probability k / (n_states - 1)."""
    return [
        donkey_world(rng, n_farmers, n_donkeys, 0.5, feed_rate=k / (n_states - 1))
        for k in range(n_states)
    ]


def donkey_variant(donkey_prop: str, kind: str) -> str:
    """``donkey.prop`` with its outer ``every (x)`` replaced by ``kind``."""
    marker = "(every (x)"
    if donkey_prop.count(marker) != 1:
        raise ValueError("donkey.prop no longer has exactly one outer 'every (x)'")
    return donkey_prop.replace(marker, f"({kind} (x)")


def write_rsa_scenario(directory: Path, states: list[DonkeyWorld], donkey_prop: str,
                       alpha: float = 4.0) -> Path:
    """Write worlds, utterance props and the scenario file; return its path."""
    directory.mkdir(parents=True, exist_ok=True)
    prior = 1.0 / len(states)
    doc_states = []
    for k, world in enumerate(states):
        name = f"state{k}.world.json"
        (directory / name).write_text(world.text())
        doc_states.append({"id": f"s{k}", "prior": prior, "world": name})
    utterances = []
    for kind in RSA_VARIANTS:
        name = f"{kind}.prop"
        (directory / name).write_text(donkey_variant(donkey_prop, kind))
        utterances.append({"id": kind, "prop": name})
    utterances.append({"id": "silence", "prop": "true", "cost": 0.0})
    path = directory / "scenario.json"
    path.write_text(json.dumps(
        {"states": doc_states, "utterances": utterances, "alpha": alpha}, indent=2
    ) + "\n")
    return path


RSA_UTTERANCES = RSA_VARIANTS + ("silence",)
