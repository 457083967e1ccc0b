"""Embedding-space analysis: distances, cosines, PCA, t-SNE, clustering.

Implements the paper's embedding diagnostics:

* Fig 16 (left) — density of pairwise Euclidean distances between
  formula embeddings: MatGPT variants hug the y-axis (small distances),
  MatSciBERT spreads wide;
* Fig 16 (right) — density of pairwise cosine similarities: MatGPT
  cosines pile up near 1 (anisotropy), MatSciBERT's spread out;
* Fig 17 — 2-D t-SNE (seeded with PCA, as the paper does) of formula
  embeddings, plus k-means clustering to quantify cluster structure.

PCA, t-SNE and k-means are implemented from scratch on NumPy/SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["pairwise_distances", "cosine_similarities", "pca", "tsne",
           "kmeans", "silhouette_score", "EmbeddingDiagnostics",
           "diagnose_embeddings", "bootstrap_mae_ci"]


def bootstrap_mae_ci(predictions: np.ndarray, targets: np.ndarray,
                     n_boot: int = 2000, confidence: float = 0.95,
                     seed: int = 0) -> tuple[float, float, float]:
    """Bootstrap confidence interval for a test-set MAE.

    Returns ``(mae, lo, hi)``; used to judge whether Table V's small
    margins (e.g. +GPT vs +SciBERT) are resolvable on a given test set.
    """
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.ndim != 1:
        raise ValueError("predictions and targets must be matching 1-D")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    errors = np.abs(predictions - targets)
    n = errors.size
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(n_boot, n))
    maes = errors[idx].mean(axis=1)
    alpha = (1 - confidence) / 2
    lo, hi = np.quantile(maes, [alpha, 1 - alpha])
    return float(errors.mean()), float(lo), float(hi)


def pairwise_distances(X: np.ndarray, max_pairs: int = 50000,
                       seed: int = 0) -> np.ndarray:
    """Euclidean distances over all (or a sampled subset of) pairs."""
    # SciPy is imported here and in the two functions below, not at
    # module level: its spatial stack is the dearest import in the
    # package, and ``repro.core`` loads this module for every command.
    from scipy.spatial.distance import pdist
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if n < 2:
        raise ValueError("need at least 2 embeddings")
    n_pairs = n * (n - 1) // 2
    if n_pairs <= max_pairs:
        return pdist(X)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=max_pairs)
    j = rng.integers(0, n, size=max_pairs)
    keep = i != j
    return np.linalg.norm(X[i[keep]] - X[j[keep]], axis=1)


def cosine_similarities(X: np.ndarray, max_pairs: int = 50000,
                        seed: int = 0) -> np.ndarray:
    """Cosine similarities over all (or sampled) pairs."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    U = X / np.where(norms > 0, norms, 1.0)
    n = len(U)
    if n < 2:
        raise ValueError("need at least 2 embeddings")
    if n * (n - 1) // 2 <= max_pairs:
        sims = U @ U.T
        iu = np.triu_indices(n, k=1)
        return sims[iu]
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=max_pairs)
    j = rng.integers(0, n, size=max_pairs)
    keep = i != j
    return np.einsum("ij,ij->i", U[i[keep]], U[j[keep]])


def pca(X: np.ndarray, n_components: int = 2
        ) -> tuple[np.ndarray, np.ndarray]:
    """Principal component analysis via SVD.

    Returns (projected data, explained-variance ratios).
    """
    X = np.asarray(X, dtype=np.float64)
    if n_components > min(X.shape):
        raise ValueError(
            f"n_components={n_components} exceeds data rank bound "
            f"{min(X.shape)}")
    centered = X - X.mean(axis=0, keepdims=True)
    U, S, Vt = np.linalg.svd(centered, full_matrices=False)
    var = S ** 2
    ratios = var[:n_components] / var.sum()
    return centered @ Vt[:n_components].T, ratios


def tsne(X: np.ndarray, n_components: int = 2, perplexity: float = 20.0,
         n_iter: int = 250, learning_rate: float = 100.0, seed: int = 0,
         pca_init_dims: int = 30) -> np.ndarray:
    """Exact t-SNE with PCA preprocessing (paper: "TSNE in tandem with PCA").

    O(n^2) implementation, suitable for the few hundred formulas used in
    the Fig 17 reproduction.
    """
    from scipy.spatial.distance import pdist, squareform
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if n < 5:
        raise ValueError("t-SNE needs at least 5 points")
    perplexity = min(perplexity, (n - 1) / 3.0)
    if X.shape[1] > pca_init_dims:
        X, _ = pca(X, n_components=min(pca_init_dims, min(X.shape)))

    # Conditional probabilities with per-point bandwidth (binary search).
    d2 = squareform(pdist(X, "sqeuclidean"))
    P = np.zeros((n, n))
    target_entropy = np.log(perplexity)
    for i in range(n):
        lo, hi = 1e-20, 1e20
        beta = 1.0
        row = np.delete(d2[i], i)
        for _ in range(50):
            p = np.exp(-row * beta)
            s = p.sum()
            if s <= 0:
                beta /= 2
                continue
            p /= s
            entropy = -np.sum(p * np.log(p + 1e-12))
            if abs(entropy - target_entropy) < 1e-4:
                break
            if entropy > target_entropy:
                lo = beta
                beta = beta * 2 if hi >= 1e20 else (beta + hi) / 2
            else:
                hi = beta
                beta = (beta + lo) / 2
        P[i, np.arange(n) != i] = p
    P = (P + P.T) / (2 * n)
    P = np.maximum(P, 1e-12)

    rng = np.random.default_rng(seed)
    Y = 1e-4 * rng.standard_normal((n, n_components))
    velocity = np.zeros_like(Y)
    for it in range(n_iter):
        num = 1.0 / (1.0 + squareform(pdist(Y, "sqeuclidean")))
        np.fill_diagonal(num, 0.0)
        Q = np.maximum(num / num.sum(), 1e-12)
        exaggeration = 4.0 if it < 50 else 1.0
        PQ = exaggeration * P - Q
        W = PQ * num
        grad = 4.0 * (Y * W.sum(axis=1, keepdims=True) - W @ Y)
        momentum = 0.5 if it < 50 else 0.8
        velocity = momentum * velocity - learning_rate * grad
        Y = Y + velocity
        Y = Y - Y.mean(axis=0, keepdims=True)
    return Y


def kmeans(X: np.ndarray, k: int, n_iter: int = 50, seed: int = 0
           ) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means; returns (labels, centers)."""
    X = np.asarray(X, dtype=np.float64)
    if not 1 <= k <= len(X):
        raise ValueError(f"k must be in [1, {len(X)}]")
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(len(X), size=k, replace=False)].copy()
    labels = np.zeros(len(X), dtype=np.int64)
    for _ in range(n_iter):
        d = ((X[:, None, :] - centers[None]) ** 2).sum(-1)
        new_labels = d.argmin(axis=1)
        if (new_labels == labels).all() and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            pts = X[labels == c]
            if len(pts):
                centers[c] = pts.mean(axis=0)
    return labels, centers


def silhouette_score(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient (cluster quality in [-1, 1])."""
    from scipy.spatial.distance import pdist, squareform
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    D = squareform(pdist(X))
    scores = []
    for i in range(len(X)):
        same = labels == labels[i]
        same[i] = False
        a = D[i, same].mean() if same.any() else 0.0
        b = min(D[i, labels == c].mean() for c in uniq if c != labels[i])
        scores.append((b - a) / max(a, b, 1e-12))
    return float(np.mean(scores))


@dataclass(frozen=True)
class EmbeddingDiagnostics:
    """Summary statistics of one embedder's space (Fig 16/17)."""

    name: str
    mean_distance: float
    mean_cosine: float
    cosine_std: float
    silhouette: float

    @property
    def is_anisotropic(self) -> bool:
        """GPT-style cone: cosines concentrated near one."""
        return self.mean_cosine > 0.7 and self.cosine_std < 0.2


def diagnose_embeddings(name: str, X: np.ndarray, n_clusters: int = 3,
                        seed: int = 0, normalize: bool = True
                        ) -> EmbeddingDiagnostics:
    """Compute the Fig 16/17 summary for one embedding matrix.

    Embeddings from different models live on different scales (GPT hidden
    states vs unit-norm projections), so distances are computed on
    unit-normalized vectors by default — an anisotropic (GPT-style) cone
    then shows small pairwise distances, a spread (BERT-style) space
    large ones, which is the Fig 16 contrast.
    """
    X = np.asarray(X, dtype=np.float64)
    if normalize:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        X = X / np.where(norms > 0, norms, 1.0)
    dists = pairwise_distances(X, seed=seed)
    cosines = cosine_similarities(X, seed=seed)
    labels, _ = kmeans(X, n_clusters, seed=seed)
    if len(np.unique(labels)) < 2:
        sil = 0.0
    else:
        sil = silhouette_score(X, labels)
    return EmbeddingDiagnostics(
        name=name,
        mean_distance=float(dists.mean()),
        mean_cosine=float(cosines.mean()),
        cosine_std=float(cosines.std()),
        silhouette=sil)
