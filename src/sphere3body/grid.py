"""The sweep's grid counter: per-region sign-change counts of g over a
(nu1, nu2) grid for one a, in numpy arrays. Only sweep imports this
module (meridian's module __getattr__ gives count_rotators_grid_regions
by name), so a process that only solves never compiles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from . import kernels
from .meridian import BOUNDARY_TOL, REGIONS, _check_a, _interiors

if TYPE_CHECKING:
    import numpy as np


# count_rotators_grid_regions counts blocks of nu2 rows: a block's
# (sample, nu2) arrays and its (nu1 + 1, nu2) difference array each hold
# at most this many cells (48 KB in float64) unless one row is larger.
# At 400 samples, blocks of 12 to 25 rows ran fastest of 6 to 128. Larger
# blocks grow the top of the heap by a few hundred KB, which glibc's
# malloc gives back to the system after each block in some heap layouts,
# so the next block faults it in again (+20% time). Minor page faults per
# 50x50 slice, over copies with an unused function appended to one module
# and several PYTHONHASHSEEDs: 0.0-0.1 at 6144, 8192 and 12288 cells (21,
# 21 and 5 layouts), 372 at 16384 in 2 of 5 layouts. 6144 keeps a margin
# of 2x below the first size that faulted.
GRID_BLOCK_CELLS = 6144


def count_rotators_grid_regions(
    a: float,
    nu1_values: Sequence[float],
    nu2_values: Sequence[float],
    samples_per_region: int = 400,
) -> dict[str, np.ndarray]:
    """Per-region sign-change counts over a (nu1, nu2) grid for one a.

    Uses the linearity of g in (nu1, nu2): g = nu1 * P(x) + nu2 * Q(x) +
    S(x) (kernels.g_terms), so the whole grid shares one set of x
    samples, evenly spaced over each region less BOUNDARY_TOL at both
    ends (_interiors; a region with no room counts 0, as in
    _scan_roots). Tangent roots are not detected here; this is the
    sweep's coarse counter. Raises ValueError, before anything is
    evaluated, where the largest |nu1| and |nu2| overflow g
    (kernels.g_bound), and unless 0 < a < pi, every nu is positive and
    samples_per_region is at least 2.

    Each g value is (nu1 * P + nu2 * Q) + S in floating point, and a sign
    change is one sample below zero with its neighbour above zero (a zero
    sample is no sign change), so a cell's count does not depend on the
    rest of the grid. (Counting neighbour products below zero instead
    misses a sign change whose product underflows to zero, which takes a
    nonzero |nu1 * P|, |nu2 * Q| or |S| below about 1e-144.)

    Rounding is monotone, so for one nu2 and one sample the computed g
    is monotone in nu1: non-decreasing where P >= 0, non-increasing
    where P < 0. Over the sorted nu1 grid each (nu2, sample) pair is
    therefore below zero, zero and above zero on three runs of indices
    (the reverse where P < 0), which two thresholds bound: t_neg and
    t_pos, the counts of nu1 where g * sign(P) is below zero and at most
    zero. g * sign(P) is also monotone in nu2 (non-decreasing where
    Q * sign(P) >= 0), so its least and largest values over the grid are
    at two corners of the box sorted nu1 x nu2, and each sample is tested
    there once per region (_split_samples): where g * sign(P) > 0 at the
    least corner, t_neg = t_pos = 0 for every nu2; where it is < 0 at the
    largest, both are n1. At the other, mixed samples (an exact 0.0 at a
    corner among them) each threshold is guessed from the real root
    -(nu2 * Q + S) / P and confirmed by g one index below and at it; a
    pair that fails the check (a zero of g near the guess, P = 0, a guess
    off by rounding) takes both from a binary search of its row of
    g * sign(P) over nu1.
    Two neighbouring samples then change sign on one interval of nu1
    indices: [min t_pos, max t_neg) of the two where P keeps its sign
    between them (empty where it ends first), and where P turns, every
    index outside [min t_neg, max t_pos). A difference array over nu1
    counts them. g is evaluated twice per sample at the corners and a
    few times per mixed (nu2, sample) pair rather than once per nu1
    value (once per nu1 value at a pair that fails the check), and the
    working memory is one block of nu2 rows (GRID_BLOCK_CELLS) besides
    the output.
    """
    import numpy as np

    nu1v = np.asarray(nu1_values, dtype=float)
    nu2v = np.asarray(nu2_values, dtype=float)
    kernels.g_bound(float(np.abs(nu1v).max(initial=0.0)),
                    float(np.abs(nu2v).max(initial=0.0)))
    _check_a(a)
    if not ((nu1v > 0.0).all() and (nu2v > 0.0).all()):
        raise ValueError("nu1 and nu2 values must be positive")
    if samples_per_region < 2:
        raise ValueError(f"samples_per_region must be at least 2, "
                         f"got {samples_per_region}")
    n1, n2 = len(nu1v), len(nu2v)
    order = np.argsort(nu1v, kind="stable")
    nu1s = nu1v[order]
    rows = max(1, GRID_BLOCK_CELLS // max(samples_per_region, n1 + 1))
    out: dict[str, np.ndarray] = {}
    for region, inner in zip(REGIONS, _interiors(a, BOUNDARY_TOL)):
        counts = np.zeros((n1, n2), dtype=np.intp)
        out[region] = counts
        if inner is None or n1 == 0 or n2 == 0:
            continue
        *terms, turns = _normalised_terms(
            *kernels.g_terms(np.linspace(*inner, samples_per_region), a))
        samples = _split_samples(nu1s, nu2v, *terms)
        for j in range(0, n2, rows):
            block = slice(j, j + rows)
            counts[order, block] = _count_block(
                nu1s, nu2v[block], turns, *samples).T
    return out


def _normalised_terms(P, Q, S):
    """(P, Q, S) times -1 at the samples where P < 0, so that
    h = (nu1 * P + nu2 * Q) + S is non-decreasing in nu1 (h = g where
    P >= 0 and -g where P < 0: the same sums of the negated terms give
    -g exactly, as rounding to nearest is symmetric), and the indices k
    of the sample pairs (k, k + 1) between which P changes sign."""
    import numpy as np

    flip = P < 0.0
    sign = np.where(flip, -1.0, 1.0)
    return sign * P, sign * Q, sign * S, np.flatnonzero(flip[:-1] != flip[1:])


def _split_samples(nu1s, nu2v, P, Q, S):
    """The samples of the normalised terms (_normalised_terms) whose h
    has one sign over the whole grid of sorted nu1s and nu2v, and the
    others. h = (nu1 * P + Q * nu2) + S is non-decreasing in nu1, and in
    nu2 where Q >= 0 (non-increasing where Q < 0), so its least and
    largest values over the grid are at two corners of the box
    nu1s x nu2v. Where h > 0 at the least corner, t_neg = t_pos = 0;
    where h < 0 at the largest, t_neg = t_pos = n1; the other samples,
    an exact 0.0 at a corner among them, are mixed. Returns the (sample,
    1) column of those thresholds (0 at the mixed samples), the indices
    of the mixed samples and their P, Q and S as columns."""
    import numpy as np

    down = Q < 0.0
    lo_nu2, hi_nu2 = nu2v.min(), nu2v.max()
    least = (nu1s[0] * P + Q * np.where(down, hi_nu2, lo_nu2)) + S
    largest = (nu1s[-1] * P + Q * np.where(down, lo_nu2, hi_nu2)) + S
    below = largest < 0.0
    mixed = np.flatnonzero(~below & ~(least > 0.0))
    return (np.where(below, len(nu1s), 0)[:, None], mixed,
            P[mixed, None], Q[mixed, None], S[mixed, None])


def _count_block(nu1s, nu2b, turns, fixed, mixed, P, Q, S) -> np.ndarray:
    """Sign changes of g between neighbouring samples, for sorted nu1s and
    each nu2 in nu2b, from the turns of _normalised_terms and the split of
    _split_samples: shape (nu2, nu1)."""
    import numpy as np

    n1, n2 = len(nu1s), len(nu2b)
    # arrays are (sample, nu2); t_neg = #{h < 0} and t_pos = #{h <= 0}
    # bound h's three runs, and are equal at the fixed samples
    t_neg = t_pos = np.repeat(fixed, n2, axis=1)
    nu2_q = Q * nu2b
    # at a mixed sample both are the guess where h is below zero one index
    # below it and above zero at it, nu1 = -inf below the grid and +inf
    # above it (where P = 0 that gives NaN, and the search of the pair's
    # row)
    nu1p = np.concatenate(([-np.inf], nu1s, [np.inf]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        guess = np.searchsorted(nu1s, (nu2_q + S) * (-1.0 / P))
        ok = (((nu1p[guess] * P + nu2_q) + S < 0.0)
              & ((nu1p[guess + 1] * P + nu2_q) + S > 0.0))
    t_neg[mixed] = guess
    if not ok.all():
        # at each rejected pair (mixed sample k, nu2 j), where 0 sorts into
        # h's non-decreasing row over nu1: first (t_neg) and last (t_pos)
        t_pos = t_neg.copy()
        for k, j in zip(*np.nonzero(~ok)):
            row = (nu1s * P[k, 0] + nu2_q[k, j]) + S[k, 0]
            t_neg[mixed[k], j] = np.searchsorted(row, 0.0, side="left")
            t_pos[mixed[k], j] = np.searchsorted(row, 0.0, side="right")

    # g < 0 on [0, t_neg) and g > 0 on [t_pos, n1), the reverse where P
    # was flipped. Where P keeps its sign between samples k and k + 1,
    # flipped or not, g changes sign on [min t_pos, max t_neg) of the two
    # samples (empty where that ends before it starts: clamped to an
    # empty interval, which cancels in the difference array). Where P
    # turns, g changes sign on [0, min t_neg) and on [max t_pos, n1):
    # everywhere (the count of turns, added to every cell) less
    # [min t_neg, max t_pos), counted as start = max t_pos and
    # end = min t_neg <= start.
    start = np.minimum(t_pos[:-1], t_pos[1:])
    end = np.maximum(t_neg[:-1], t_neg[1:])
    np.maximum(end, start, out=end)
    if turns.size:
        start[turns] = np.maximum(t_pos[turns], t_pos[turns + 1])
        end[turns] = np.minimum(t_neg[turns], t_neg[turns + 1])
    # one difference array of n1 + 1 entries per nu2
    offset = (n1 + 1) * np.arange(n2)
    start += offset
    end += offset
    size = (n1 + 1) * n2
    diff = np.bincount(start.ravel(), minlength=size)
    diff -= np.bincount(end.ravel(), minlength=size)
    counts = diff.reshape(n2, n1 + 1)
    counts[:, 0] += turns.size
    return np.cumsum(counts, axis=1, out=counts)[:, :n1]
