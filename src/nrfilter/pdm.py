"""Probability density maps around a predicted token.

Every token in the chunk except the predicted one drops its per-class
probability into one of B equal-width bins over [0, 1]; the contribution
is scaled by a Gaussian distance decay and divided by the total token
count. The unweighted cumulative variant keeps raw probability sums per
bin, which is easier to read when inspecting single chunks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import Chunk, FeatureConfig
from .errors import AnchorOutOfRange


def _check_anchor(chunk: Chunk, t_predicted: int):
    if not 0 <= t_predicted < chunk.n_tokens:
        raise AnchorOutOfRange(
            f"anchor {t_predicted} outside chunk {chunk.id!r} of {chunk.n_tokens} tokens"
        )


def _bin_indices(probs: np.ndarray, bins: int) -> np.ndarray:
    # floor(p * B), with p == 1.0 clamped into the top bin so [0, 1] is covered.
    idx = np.floor(probs * bins).astype(np.int64)
    return np.minimum(idx, bins - 1)


def binned_mass(
    probs: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
    bins: int,
    norm: np.ndarray,
) -> np.ndarray:
    """(n, bins, K) grids in one bincount: grid j gets
    ``weights[j, t] * probs[rows[j], t, k] / norm[j]`` in the bin of
    ``probs[rows[j], t, k]``, for ``probs`` of shape (C, T, K).

    This is the one density-map implementation. A grid sums its tokens
    in order, and a token with weight 0 or all-zero probabilities adds
    exactly 0.0, so zeroing a weight excludes that token and zero rows
    may pad a short chunk.
    """
    n = len(rows)
    K = probs.shape[2]
    contrib = probs.take(rows, axis=0)
    contrib *= weights[:, :, None]
    contrib /= norm[:, None, None]
    flat = (_bin_indices(probs, bins) * K + np.arange(K)).take(rows, axis=0)
    flat += (np.arange(n) * (bins * K))[:, None, None]
    return np.bincount(
        flat.ravel(), weights=contrib.ravel(), minlength=n * bins * K
    ).reshape(n, bins, K)


@lru_cache(maxsize=256)
def decay_table(length: int, decay_rate: float) -> np.ndarray:
    """Read-only Gaussian decay weights exp(-d^2 / (2 R^2)) of the token
    distances d = 0 .. length - 1; 1 at distance 0."""
    d = np.arange(length, dtype=np.float64)
    table = np.exp(-(d * d) / (2.0 * decay_rate * decay_rate))
    table.flags.writeable = False
    return table


def compute_pdm(
    chunk: Chunk,
    t_predicted: int,
    config: FeatureConfig = FeatureConfig(),
    exclude: Iterable[int] | None = None,
) -> np.ndarray:
    """Decay-weighted (bins, K) density map around ``t_predicted``.

    Each contributing token t adds W_t * prob / numTokens to the bin of
    its class probability, where numTokens counts every token in the
    chunk (the predicted token included) and W_t is the Gaussian decay
    weight. ``exclude`` widens the excluded set beyond the predicted
    token itself, e.g. to all tokens of a multi-token predicted span.
    """
    _check_anchor(chunk, t_predicted)
    T = chunk.n_tokens
    weights = decay_table(T, config.decay_rate).take(np.abs(np.arange(T) - t_predicted))
    weights[t_predicted] = 0.0
    if exclude is not None:
        weights[[t for t in exclude if 0 <= t < T]] = 0.0
    return binned_mass(chunk.probs[None], np.zeros(1, dtype=np.intp), weights[None],
                       config.bins, np.array([float(T)]))[0]


def cumulative_bins(chunk: Chunk, t_predicted: int, bins: int = FeatureConfig.bins) -> np.ndarray:
    """Unweighted per-bin probability sums around ``t_predicted``.

    Same binning as compute_pdm but each token adds its raw probability:
    no decay weight, no division by the token count.
    """
    _check_anchor(chunk, t_predicted)
    weights = np.ones((1, chunk.n_tokens))
    weights[0, t_predicted] = 0.0
    return binned_mass(chunk.probs[None], np.zeros(1, dtype=np.intp), weights, bins,
                       np.ones(1))[0]


def bin_edges(bins: int) -> list[tuple[float, float]]:
    """(lo, hi) edges of each probability bin."""
    return [(i / bins, (i + 1) / bins) for i in range(bins)]

