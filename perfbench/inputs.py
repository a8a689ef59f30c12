"""Workload inputs drawn by the benchmark itself, from the workload seed.

Everything here is plain numpy: covariances, means and weights are drawn
with the benchmark's own generators, so epicheck receives finished inputs
and none of its random-instance helpers decide what a workload contains.
"""

from __future__ import annotations

import numpy as np

# Component-count pairs (K_x, K_y) of the random mixture pairs, and the
# dimension each pair is drawn in: dim = 2 + (K_x + K_y + 1) mod 3 puts every
# dimension 2..4 against three pairs, and the 3 x 3 pair (K = 9 in the sum)
# in dimension 3, the main shape of the Monte-Carlo checks.
COMPONENT_PAIRS = tuple((kx, ky) for kx in (1, 2, 3) for ky in (1, 2, 3))


def pair_dim(kx: int, ky: int) -> int:
    return 2 + (kx + ky + 1) % 3


def generator(seed: int, *tags: int) -> np.random.Generator:
    """Independent stream for (workload seed, tags)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


def spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random SPD matrix Q diag(e) Q' with eigenvalues in [1/4, 4]."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    eig = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=n))
    m = (q * eig) @ q.T
    return 0.5 * (m + m.T)


def wide_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """M'M for a standard normal M, shifted to condition number 1e3.

    Its log-determinant grows like n (ln n - 1), which is what makes
    exp(2h) and det overflow a double from about n = 150 on.
    """
    m = rng.standard_normal((n, n))
    w = m.T @ m
    w = 0.5 * (w + w.T)
    eig = np.linalg.eigvalsh(w)
    eps = max(0.0, (eig[-1] - 1e3 * eig[0]) / (1e3 - 1.0))
    return w + eps * np.eye(n)


def mixture_parts(rng: np.random.Generator, n: int, k: int):
    """Weights, means and covariances of a random k-component mixture."""
    raw = rng.uniform(0.5, 1.5, size=k)
    weights = raw / raw.sum()
    means = [rng.normal(0.0, 1.0, size=n) for _ in range(k)]
    covs = [spd(rng, n) for _ in range(k)]
    return weights, means, covs


def diagonal_pair(rng: np.random.Generator, n: int):
    return (
        np.diag(rng.uniform(0.5, 3.0, size=n)),
        np.diag(rng.uniform(0.5, 3.0, size=n)),
    )


def schur_last(a: np.ndarray) -> float:
    """a_nn - v' P^-1 v, by a general solve (independent of epicheck)."""
    return float(a[-1, -1] - a[:-1, -1] @ np.linalg.solve(a[:-1, :-1], a[:-1, -1]))


def equality_pair(rng: np.random.Generator, a: np.ndarray):
    """(A, B) differing only in the last diagonal entry: det is affine in it,
    so det(lam A + (1-lam) B) = lam det A + (1-lam) det B for every lam."""
    b = a.copy()
    b[-1, -1] += (rng.uniform(1.5, 3.0) - 1.0) * schur_last(a)
    return a, b


def shared_prefix_pair(rng: np.random.Generator, a: np.ndarray):
    """(A, B) with the same leading (n-1) block: B shrinks the last column of
    A and adds to its last diagonal entry, which keeps B positive definite."""
    b = a.copy()
    b[-1, :-1] *= rng.uniform(0.0, 1.0)
    b[:-1, -1] = b[-1, :-1]
    b[-1, -1] += rng.uniform(0.5, 2.0)
    return a, b
