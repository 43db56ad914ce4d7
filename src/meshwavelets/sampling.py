"""Vertex sample selection: farthest-point and random sampling, sample noise."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geodesics import geodesic_distances_multi
from .laplacian import Shape

STRATEGIES = ("fps-euclidean", "fps-geodesic", "random")


@dataclass(frozen=True)
class SampleSet:
    """Ordered distinct vertex indices with the strategy and seed that produced them.

    ``strategy`` is one of ``fps-euclidean``, ``fps-geodesic``, ``random``,
    or ``explicit`` for user-supplied landmark indices.
    """

    indices: np.ndarray
    strategy: str
    seed: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size < 1:
            raise ValueError("sample set needs a 1-D array of at least one index")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("sample indices must be distinct")
        if idx.min() < 0:
            raise ValueError(f"sample index {idx.min()} is negative")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.shape[0]


def explicit_samples(indices) -> SampleSet:
    """Wrap user-supplied landmark indices (e.g. read from a file)."""
    return SampleSet(indices=np.asarray(indices, dtype=np.int64), strategy="explicit", seed=0)


def sample(shape: Shape, n: int, strategy: str = "fps-euclidean",
           seed: int = 0) -> SampleSet:
    """Select ``n`` distinct vertices of the shape's unit-area mesh.

    Farthest-point strategies start from a seed-chosen uniform random vertex
    and greedily add the vertex maximizing the minimum distance (Euclidean or
    geodesic) to the already-chosen set; ties go to the lowest vertex index.
    ``random`` draws n distinct uniform indices. Deterministic given ``seed``.
    """
    mesh = shape.mesh
    if not 1 <= n <= mesh.n_vertices:
        raise ValueError(f"n must be in [1, {mesh.n_vertices}], got {n}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    rng = np.random.default_rng(seed)

    if strategy == "random":
        idx = rng.choice(mesh.n_vertices, size=n, replace=False)
        return SampleSet(indices=idx, strategy=strategy, seed=seed)

    if strategy == "fps-geodesic":
        distances = lambda s: geodesic_distances_multi(shape.graph, [s])[0]
    else:
        distances = lambda s: np.linalg.norm(mesh.vertices - mesh.vertices[s], axis=1)

    first = int(rng.integers(mesh.n_vertices))
    chosen = [first]
    dmin = distances(first)
    for _ in range(n - 1):
        nxt = int(np.argmax(dmin))  # argmax takes the first (lowest-index) maximum
        chosen.append(nxt)
        dmin = np.minimum(dmin, distances(nxt))
    return SampleSet(indices=np.array(chosen), strategy=strategy, seed=seed)


def perturb_samples(shape: Shape, samples: SampleSet, noise_radius: float,
                    count: int, seed: int = 0) -> SampleSet:
    """Displace ``count`` samples within a geodesic disc around their position.

    Each displaced sample is replaced by a uniform random vertex whose
    geodesic distance from the original sample is at most
    ``noise_radius * max(geodesic distances from that sample)``. The samples
    to displace are seed-chosen without replacement; the rest are unchanged.
    Candidates already used by another sample are excluded so the returned
    indices stay distinct, and so is the sample's own vertex whenever its disc
    holds another candidate: a displaced sample moves. Deterministic given
    ``seed``. A disc shorter than the shortest edge at a sample holds only the
    sample, which then stays.
    """
    if not 0 <= count <= len(samples):
        raise ValueError(f"count must be in [0, {len(samples)}], got {count}")
    if not noise_radius >= 0:  # also rejects NaN
        raise ValueError(f"noise_radius must be non-negative, got {noise_radius}")
    rng = np.random.default_rng(seed)
    which = rng.choice(len(samples), size=count, replace=False)
    new_indices = np.array(samples.indices)
    for pos in np.sort(which):
        s = int(new_indices[pos])
        d = geodesic_distances_multi(shape.graph, [s])[0]
        bound = noise_radius * np.max(d[np.isfinite(d)])
        candidates = np.flatnonzero(d <= bound)
        others = np.delete(new_indices, pos)
        candidates = np.setdiff1d(candidates, others, assume_unique=False)
        elsewhere = candidates[candidates != s]
        new_indices[pos] = int(rng.choice(elsewhere if elsewhere.size else candidates))
    return replace(samples, indices=new_indices)
