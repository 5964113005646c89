"""Empirical mutual-information estimators.

The paper's theory speaks in mutual information; its simulations report
mean square error.  These estimators close the loop: given paired
samples of creation times X and observed arrival times Z from the
simulator, they estimate I(X; Z) directly, so the benchmark suite can
show the empirical leakage obeying the analytic bounds of
:mod:`repro.infotheory.bounds`.

Three estimators with different bias/variance trade-offs:

* :func:`binned_mutual_information` -- plug-in histogram estimator with
  Miller--Madow bias correction; simple, robust, biased upward for
  small samples;
* :func:`ksg_mutual_information` -- Kraskov--Stogbauer--Grassberger
  kNN estimator (algorithm 1); low bias for continuous data;
* :func:`gaussian_mi_estimate` -- correlation-based parametric
  estimate, exact when (X, Z) is bivariate Gaussian.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "binned_mutual_information",
    "ksg_mutual_information",
    "gaussian_mi_estimate",
]


def _validate_pairs(x: np.ndarray, z: np.ndarray, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if x.shape != z.shape:
        raise ValueError(f"x and z must have the same length, got {x.size} and {z.size}")
    if x.size < minimum:
        raise ValueError(f"need at least {minimum} samples, got {x.size}")
    return x, z


def binned_mutual_information(
    x: np.ndarray, z: np.ndarray, bins: int = 0, correct_bias: bool = True
) -> float:
    """Histogram plug-in estimate of I(X; Z) in nats.

    Parameters
    ----------
    bins:
        Number of equal-frequency bins per axis; 0 selects
        ``ceil(sqrt(n / 5))``, a standard heuristic keeping ~5 points
        per cell on average.
    correct_bias:
        Apply the Miller--Madow correction
        ``(K_xz - K_x - K_z + 1) / (2 n)`` where K are the counts of
        occupied cells.
    """
    x, z = _validate_pairs(x, z, minimum=4)
    n = x.size
    if bins <= 0:
        bins = max(2, math.ceil(math.sqrt(n / 5)))
    # Equal-frequency (quantile) bin edges are far more robust than
    # equal-width ones for the heavy-tailed delay data we feed in.
    x_edges = np.unique(np.quantile(x, np.linspace(0, 1, bins + 1)))
    z_edges = np.unique(np.quantile(z, np.linspace(0, 1, bins + 1)))
    if x_edges.size < 2 or z_edges.size < 2:
        return 0.0  # a degenerate (constant) marginal carries no information
    joint, _, _ = np.histogram2d(x, z, bins=[x_edges, z_edges])
    p_joint = joint / n
    p_x = p_joint.sum(axis=1, keepdims=True)
    p_z = p_joint.sum(axis=0, keepdims=True)
    mask = p_joint > 0
    mi = float(np.sum(p_joint[mask] * np.log(p_joint[mask] / (p_x @ p_z)[mask])))
    if correct_bias:
        occupied_joint = int(mask.sum())
        occupied_x = int((p_x > 0).sum())
        occupied_z = int((p_z > 0).sum())
        mi -= (occupied_joint - occupied_x - occupied_z + 1) / (2.0 * n)
    return max(mi, 0.0)


def _marginal_neighbor_counts(
    tree: cKDTree, points: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Points within each point's radius (vectorized KSG inner loop).

    One batched ``query_ball_point`` call with per-point radii replaces
    the former per-point Python loop -- the KSG hot path.  The loop
    survives in ``tests/oracles.py`` as the equivalence tests' oracle.
    """
    return (
        tree.query_ball_point(points[:, None], radii, return_length=True) - 1
    )


def ksg_mutual_information(x: np.ndarray, z: np.ndarray, k: int = 4) -> float:
    """Kraskov--Stogbauer--Grassberger kNN estimate of I(X; Z) in nats.

    Algorithm 1 of Kraskov et al. (2004): for each point, find the
    Chebyshev distance to its k-th neighbour in the joint space, count
    marginal neighbours strictly within that distance, and average ::

        I = psi(k) + psi(n) - <psi(n_x + 1) + psi(n_z + 1)>

    A tiny deterministic jitter breaks ties that arise from discrete
    timestamps without perturbing the estimate.
    """
    from scipy.spatial import cKDTree
    from scipy.special import digamma

    x, z = _validate_pairs(x, z, minimum=8)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = x.size
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the sample size {n}")
    # Deterministic tie-breaking jitter, scaled well below data spacing.
    span_x = np.ptp(x) or 1.0
    span_z = np.ptp(z) or 1.0
    jitter = np.random.Generator(np.random.PCG64(12345))
    x = x + jitter.normal(0.0, 1e-10 * span_x, size=n)
    z = z + jitter.normal(0.0, 1e-10 * span_z, size=n)

    joint = np.column_stack([x, z])
    tree_joint = cKDTree(joint)
    # k+1 because the query point itself is returned at distance 0.
    distances, _ = tree_joint.query(joint, k=k + 1, p=np.inf)
    radii = distances[:, -1]

    tree_x = cKDTree(x[:, None])
    tree_z = cKDTree(z[:, None])
    n_x = _marginal_neighbor_counts(tree_x, x, radii - 1e-12)
    n_z = _marginal_neighbor_counts(tree_z, z, radii - 1e-12)
    mi = (
        float(digamma(k))
        + float(digamma(n))
        - float(np.mean(digamma(n_x + 1) + digamma(n_z + 1)))
    )
    return max(mi, 0.0)


def gaussian_mi_estimate(x: np.ndarray, z: np.ndarray) -> float:
    """Parametric Gaussian estimate: -0.5 ln(1 - corr(X,Z)^2), nats.

    Exact for jointly Gaussian pairs; for other laws it captures only
    the linear dependence and therefore *lower-bounds* the true mutual
    information (up to sampling error).
    """
    x, z = _validate_pairs(x, z, minimum=4)
    if np.std(x) == 0 or np.std(z) == 0:
        return 0.0
    rho = float(np.corrcoef(x, z)[0, 1])
    rho = max(min(rho, 0.999999999), -0.999999999)
    return -0.5 * math.log(1.0 - rho * rho)
