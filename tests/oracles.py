"""Independent brute-force oracles for chain-CRF inference, and a plain
reference for the optimizer's two-loop recursion.

The inference oracles deliberately avoid the library's dynamic programs:
everything is computed by explicit enumeration over all L^T label sequences.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def seq_score(state, trans, seq) -> float:
    """Unnormalized path score: state terms plus transitions for t >= 2."""
    if len(seq) != len(state):
        raise ValueError("label sequence length does not match the lattice")
    score = 0.0
    prev = None
    for t, y in enumerate(seq):
        score += state[t][y]
        if prev is not None:
            score += trans[prev][y]
        prev = y
    return score


def all_sequences(T: int, L: int):
    return itertools.product(range(L), repeat=T)


def brute_log_partition(state, trans) -> float:
    scores = [seq_score(state, trans, seq) for seq in all_sequences(len(state), len(trans))]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_marginals(state, trans):
    T, L = len(state), len(trans)
    log_z = brute_log_partition(state, trans)
    node = np.zeros((T, L))
    edge = np.zeros((max(T - 1, 0), L, L))
    for seq in all_sequences(T, L):
        p = math.exp(seq_score(state, trans, seq) - log_z)
        for t, y in enumerate(seq):
            node[t, y] += p
            if t > 0:
                edge[t - 1, seq[t - 1], y] += p
    return node, edge


def brute_viterbi(state, trans):
    """Max score and the lexicographically least argmax sequence."""
    best_score = -math.inf
    best_seq = None
    for seq in all_sequences(len(state), len(trans)):
        s = seq_score(state, trans, seq)
        if s > best_score:
            best_score = s
            best_seq = seq
    return list(best_seq), best_score


def brute_argmax_set(state, trans):
    """All sequences attaining the exact maximum score."""
    scored = [
        (seq_score(state, trans, seq), seq)
        for seq in all_sequences(len(state), len(trans))
    ]
    best = max(s for s, _ in scored)
    return [list(seq) for s, seq in scored if s == best]


def random_dyadic_lattice(rng: np.random.Generator, T: int, L: int):
    """Scores on a 1/64 grid in [-2, 2] so float sums are exact."""
    state = rng.integers(-128, 129, size=(T, L)) / 64.0
    trans = rng.integers(-128, 129, size=(L, L)) / 64.0
    return state, trans


def two_loop_direction(grad, pairs, dot):
    """-H grad by the two-loop recursion (Nocedal & Wright, Algorithm 7.4)
    over (s, y, 1/s.y) pairs, oldest first, with H0 = (s.y / y.y) I of the
    newest pair; every product is a fresh array.  ``dot`` is the dot product
    the trainer uses, so the result can match it bit for bit."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * dot(s, q))
        q = q - alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        q = q / (rho * dot(y, y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - rho * dot(y, q)) * s
    return -q
