"""Weighted sup-block norms on aligned partitions of the grid.

The grid is tiled by half-open blocks of ``block_len`` samples starting at
sample 0; the norm is the weighted sum of per-block sup values, with blocks
indexed by their signed representatives.  Partial sums of that series double
as a divergence diagnostic for signals designed to fall outside the space.
``_profile`` is the package's one evaluator of weighted sup series: the block
norm, the multiplier sums ``sum_r sup|G_r| * nu(r)`` and the bracket series
all read the rows of their tables through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Signal, Weight, norm_l2, signed_range
from .errors import DivisibilityError, DomainError

__all__ = ["AmalgamProfile", "amalgam_norm", "amalgam_profile", "embedding_check"]


@dataclass(frozen=True, eq=False)
class AmalgamProfile:
    """Per-block sups and weighted cumulative sums of a block-norm evaluation.

    Blocks are ordered by increasing ``|n|`` with ties broken positive-first;
    the final cumulative sum is the norm itself.
    """

    block_len: int
    indices: np.ndarray
    block_sups: np.ndarray
    weights: np.ndarray
    weighted_cumsums: np.ndarray

    @property
    def norm(self) -> float:
        return float(self.weighted_cumsums[-1])


def _profile(rows: np.ndarray, w: Weight) -> AmalgamProfile:
    """Weighted sup series of the rows of a table, row ``n mod len(rows)``
    being block ``n``, summed cumulatively in :func:`signed_range` order;
    a column of row sups, ``(n, 1)``, is priced as the table it came from.
    Rows that are not finite, or a weight or a series that overflows,
    raise ``DomainError`` saying which."""
    nblocks = rows.shape[0]
    indices = np.array(signed_range(nblocks), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        sups = np.abs(rows).max(axis=1)[indices % nblocks]
        weights = w(indices)
        cumsums = np.cumsum(sups * weights)
    bad = np.count_nonzero(~np.isfinite(sups))
    if bad:
        raise DomainError(f"rows are not finite on {bad} of {nblocks} blocks")
    if not (np.isfinite(weights).all() and math.isfinite(cumsums[-1])):
        raise DomainError(f"weight {w.describe()} overflows on {nblocks} blocks")
    return AmalgamProfile(
        block_len=rows.shape[1],
        indices=indices,
        block_sups=sups,
        weights=weights,
        weighted_cumsums=cumsums,
    )


def amalgam_profile(f: Signal, block_len: int, w: Weight) -> AmalgamProfile:
    """Per-block profile of the weighted sup-block norm of ``f``."""
    L = f.grid.L
    if block_len < 1 or L % block_len != 0:
        raise DivisibilityError(
            f"block length {block_len} does not divide grid length {L}"
        )
    return _profile(f.samples.reshape(L // block_len, block_len), w)


def amalgam_norm(f: Signal, block_len: int, w: Weight) -> float:
    """Weighted sup-block norm: ``sum_n sup_{block n} |f| * nu(n)``."""
    return amalgam_profile(f, block_len, w).norm


def embedding_check(f: Signal, block_len: int, w: Weight) -> tuple[float, float, float]:
    """Return ``(amalgam, l2, linf)`` norms of ``f``.

    The amalgam norm dominates the sup norm outright, and dominates the scaled
    Euclidean norm up to the block-geometry factor ``sqrt(block_len/s)``.
    """
    prof = amalgam_profile(f, block_len, w)
    return prof.norm, norm_l2(f), float(np.max(np.abs(f.samples)))
