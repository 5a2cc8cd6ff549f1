"""Independent references for every benchmark operation.

Nothing here imports the package under test.  The values come from
closed forms (donkey sentences), from a numpy brute force over explicit
bit tables (vague quantifiers under both lift schemes) and from a small
matrix RSA over closed-form meanings.

Each reference also has a ``tie_true`` variant in which ``most`` counts a
ratio of exactly 1/2 as true.  It names the cause of a miss and counts the
hits of the traced run's ``most`` probes: a result that misses the
reference but lies between it and the ``tie_true`` one hit the known
``most``-breakpoint defect (non-dyadic masses accumulated with a bare
``+=`` push an exact 1/2 just above the strict breakpoint).
"""

from __future__ import annotations

import math

import numpy as np

EXACT_TOL = 1e-12
RSA_TOL = 1e-9
MC_SIGMAS = 5.0
MOST_CAUSE = "most-breakpoint: a ratio of exactly 1/2 evaluates as above 1/2"


# --- quantifier shapes over integer counts -----------------------------------

def shape_of_counts(kind: str, nb, nr, tie_true: bool = False):
    """f_Q(|R and B| / |R|) for uniform mass, with the empty-R conventions.

    Works elementwise on numpy arrays of counts.  For one vague node the
    threshold integral of [f >= theta] is f itself.
    """
    nb = np.asarray(nb, dtype=np.int64)
    nr = np.asarray(nr, dtype=np.int64)
    empty = nr == 0
    safe = np.where(empty, 1, nr)
    if kind == "some":
        return np.where(empty, 0.0, (nb > 0).astype(float))
    if kind == "every":
        return np.where(empty, 1.0, (nb == nr).astype(float))
    if kind == "most":
        value = (2 * nb >= nr) if tie_true else (2 * nb > nr)
        return np.where(empty, 0.0, value.astype(float))
    if kind == "many":
        return np.where(empty, 0.0, nb / safe)
    if kind == "few":
        return np.where(empty, 1.0, 1.0 - nb / safe)
    if kind == "generic":
        return np.where(empty, 1.0, nb / safe)
    raise ValueError(f"unknown kind {kind!r}")


def _independent_tables(values):
    """All precise tables for one predicate: (bits, weights) over 2^k rows."""
    values = np.asarray(values, dtype=float)
    frac = np.flatnonzero((values > 0.0) & (values < 1.0))
    k = len(frac)
    codes = np.arange(2 ** k, dtype=np.int64)
    fbits = ((codes[:, None] >> np.arange(k)) & 1).astype(bool)
    bits = np.broadcast_to(values >= 1.0, (2 ** k, len(values))).copy()
    bits[:, frac] = fbits
    p = values[frac]
    weights = np.prod(np.where(fbits, p, 1.0 - p), axis=1)
    return bits, weights


def _coupled_tables(values):
    """Super-level sets of one shared threshold, weighted by region length."""
    values = np.asarray(values, dtype=float)
    cuts = sorted({v for v in values if 0.0 < v < 1.0})
    bounds = [0.0] + cuts + [1.0]
    his = np.array(bounds[1:])
    bits = values[None, :] >= his[:, None]
    weights = np.diff(np.array(bounds))
    return bits, weights


def lift_value(r, b, kind: str, scheme: str, tie_true: bool = False) -> float:
    """Exact P[(kind (x) (r x) (b x))] over a uniform pixie space."""
    tables = _independent_tables if scheme == "independent" else _coupled_tables
    rbits, rw = tables(r)
    bbits, bw = tables(b)
    nr = rbits.sum(axis=1)
    # nb[i, j] = |R_i and B_j|
    nb = rbits.astype(np.int64) @ bbits.astype(np.int64).T
    f = shape_of_counts(kind, nb, nr[:, None], tie_true)
    return math.fsum((rw[:, None] * bw[None, :] * f).ravel())


# --- donkey sentences ----------------------------------------------------------

def fed_proportions(world) -> list[float]:
    """Fed share of each owning farmer's donkeys."""
    return [
        len(world.fed[f]) / len(world.owned[f]) for f in world.farmers if world.owned[f]
    ]


def donkey_meaning(world, kind: str = "every", tie_true: bool = False) -> float:
    """Closed form for the ``kind`` variant of ``donkey.prop``.

    The inner generic node is shared by every farmer, so one threshold
    theta decides [v_f >= theta] for all of them: ``every`` is the
    minimum proportion, ``some`` the maximum, and ``most`` the k-th
    largest with k the least count above half of the owning farmers.
    """
    v = sorted(fed_proportions(world), reverse=True)
    n = len(v)
    if kind == "every":
        return v[-1] if v else 1.0
    if kind == "some":
        return v[0] if v else 0.0
    if kind == "most":
        if not n:
            return 0.0
        k = (n + 1) // 2 if tie_true else n // 2 + 1
        return v[k - 1]
    if kind == "silence":
        return 1.0
    raise ValueError(f"unknown kind {kind!r}")


# --- RSA -----------------------------------------------------------------------

def rsa_l1(meanings, priors, costs, alpha: float):
    """Pragmatic listener for every utterance: array (utterances, states).

    ``meanings`` is (utterances, states).  Utterances false in every state
    and states with no viable utterance behave as in the Frank & Goodman
    model with zero-posterior utterances excluded from the speaker.  Rows
    of utterances that no state would choose are NaN.
    """
    m = np.asarray(meanings, dtype=float)
    prior = np.asarray(priors, dtype=float)
    cost = np.asarray(costs, dtype=float)
    joint = m * prior[None, :]
    norm = joint.sum(axis=1, keepdims=True)
    l0 = np.divide(joint, norm, out=np.zeros_like(joint), where=norm > 0)
    with np.errstate(divide="ignore"):
        util = np.where(l0 > 0, np.log(np.where(l0 > 0, l0, 1.0)) - cost[:, None], -np.inf)
    viable = np.isfinite(util)
    top = util.max(axis=0, keepdims=True)
    if math.isinf(alpha):
        s1 = (viable & (util == top)).astype(float)
    else:
        shift = np.where(np.isfinite(top), top, 0.0)
        s1 = np.where(viable, np.exp(alpha * (np.where(viable, util, shift) - shift)), 0.0)
    s1_norm = s1.sum(axis=0, keepdims=True)
    s1 = np.divide(s1, s1_norm, out=np.zeros_like(s1), where=s1_norm > 0)
    l1 = s1 * prior[None, :]
    l1_norm = l1.sum(axis=1, keepdims=True)
    return np.divide(l1, l1_norm, out=np.full_like(l1, np.nan), where=l1_norm > 0)


def rsa_reference(states, utterances, priors, alpha, tie_true: bool = False):
    """{utterance: [L1 posterior per state]} for the donkey-variant scenario."""
    meanings = [[donkey_meaning(w, u, tie_true) for w in states] for u in utterances]
    l1 = rsa_l1(meanings, priors, [0.0] * len(utterances), alpha)
    return {u: l1[i].tolist() for i, u in enumerate(utterances)}


# --- checks --------------------------------------------------------------------

def mc_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def mc_within(estimate: float, p: float, n: int) -> bool:
    """Within 5 sigma of the exact value; sigma 0 needs equality."""
    return abs(estimate - p) <= MC_SIGMAS * mc_sigma(p, n)
