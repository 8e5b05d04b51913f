"""Phase-space datasets and the penalty metric.

A dataset is a finite collection of (strain, stress) tuples in one of
three pairings: deformation gradient with first Piola-Kirchhoff stress
(FP), right Cauchy-Green tensor with second Piola-Kirchhoff stress (CS),
or small-strain tensor with Cauchy stress (EPS).  The solvers measure the
distance between a local state and a tuple with the weighted metric

    dist^2 = mu0/2 * |d_strain|^2  +  1/(2 mu0) * |d_stress|^2

where |.| is the Frobenius norm and mu0 a positive modulus-like scale.
Tensors are stored as full row-major d*d component vectors even for the
symmetric pairings.  A `DataSet` checks its tuples once, when it is
built, however it was made: loaded, generated, converted or refined.
It keeps the arrays it was given without copying them, so treat those
arrays as read-only.

Nearest-tuple search, nearest-neighbour spacing and pool refinement run
on one exact index.  Each tuple is embedded as

    [sqrt(mu0/2) * strain, sqrt(1/(2 mu0)) * stress]

so the metric above is plain squared Euclidean distance there.  The
embedded tuples span few directions of their stored space (symmetric
tensors store each off-diagonal twice, and stress follows strain), and
a k-d tree that splits on coordinate axes searches many leaves on such
data.  So the search tree, a `scipy.spatial.cKDTree`, holds the
embedded tuples rotated onto their principal axes, and each query is
rotated by the same orthogonal matrix: the rotation leaves every
distance unchanged.  It is a rotation only, without the usual shift to
the centroid, so a rotated coordinate rounds within a few ulps of the
unrotated row's norm, as the embedded coordinates do.  The tree
proposes candidates; the answer is settled by the metric computed from
direct differences, with ties going to the lowest id.

A refinement pool is searched through the same index, in one join of
the pool's own tree, built once for its mu0, with a small tree of the
used tuples rotated into its frame.  The join settles every pool tuple
whose rotated distance to a used tuple is clear of the radius by more
than the rounding margin; only the few in the band around the radius
are measured, on unrotated coordinates.  A multilevel run keeps one
mu0 on every level, so it builds the pool's tree once.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import textio
from .tensors import transposed

_SYM_TOL = 1e-10
_ANGULAR_TOL = 1e-8


class PairingKind(enum.Enum):
    """Which strain/stress measures a dataset pairs."""

    FP = "FP"
    CS = "CS"
    EPS_SIGMA = "EPS"

    @property
    def symmetric(self) -> bool:
        """Both members of a tuple are symmetric tensors."""
        return self is not PairingKind.FP

    def strain_reference(self, dim: int) -> np.ndarray:
        """Zero-deformation strain value (identity for FP/CS, zero for EPS)."""
        if self is PairingKind.EPS_SIGMA:
            return np.zeros((dim, dim))
        return np.eye(dim)


@dataclass(frozen=True, eq=False)
class DataTuple:
    """One strain-stress sample."""

    strain: np.ndarray
    stress: np.ndarray


def _asymmetric(t: np.ndarray, tol: float) -> np.ndarray:
    """Per tensor of a (n, d, d) batch: |T - T^T| > tol * max(1, |T|)."""
    size = np.linalg.norm(t, axis=(1, 2))
    skew = np.linalg.norm(t - np.swapaxes(t, 1, 2), axis=(1, 2))
    return skew > tol * np.maximum(1.0, size)


# rows per block of the tuple checks and of auto_mu0's sums, so that
# their temporaries stay a few block-sized arrays at any dataset size
_BLOCK = 2048


def _validate(kind: PairingKind, dim: int, strains: np.ndarray,
              stresses: np.ndarray) -> None:
    """Raise for the lowest-numbered invalid tuple, naming its first failed check.

    Checks in order: finite components; then a symmetric strain and a
    symmetric stress for CS/EPS, or angular momentum balance (relative
    asymmetry of P F^T) for FP.  A 1x1 tensor is symmetric, so in 1D only
    the first check can fail.  Runs on blocks of _BLOCK tuples in order,
    so the first block with an invalid tuple holds the lowest.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, len(strains), _BLOCK):
            e, s = strains[lo:lo + _BLOCK], stresses[lo:lo + _BLOCK]
            failed = [("non-finite component",
                       ~(np.isfinite(e).all(axis=1) & np.isfinite(s).all(axis=1)))]
            if dim > 1:
                e, s = e.reshape(-1, dim, dim), s.reshape(-1, dim, dim)
                if kind.symmetric:
                    failed += [("strain tensor is not symmetric", _asymmetric(e, _SYM_TOL)),
                               ("stress tensor is not symmetric", _asymmetric(s, _SYM_TOL))]
                else:
                    failed.append(("FP pair violates angular momentum balance",
                                   _asymmetric(s @ transposed(e), _ANGULAR_TOL)))
            first = min(((int(np.argmax(bad)), order, msg)
                         for order, (msg, bad) in enumerate(failed) if bad.any()), default=None)
            if first is not None:
                raise ValueError(f"tuple {lo + first[0]}: {first[2]}")


def _checked_mu0(mu0) -> float:
    """mu0 as a float; raise unless it is positive and finite."""
    if not (mu0 > 0.0 and np.isfinite(mu0)):
        raise ValueError(f"mu0 must be positive and finite, got {mu0}")
    return float(mu0)


class DataSet:
    """Immutable collection of data tuples with a frozen metric scale.

    The tuples live in two (n, d*d) arrays so that searches vectorize.
    They are the caller's float arrays, not copies (only arrays of
    another dtype are converted), so `load_dataset`'s two blocks are
    column views of its one parsed table.  The tuples are checked once,
    here.  Treat instances and the arrays they were built from as
    read-only: the search tree is built on first use and cached on the
    instance.
    """

    def __init__(self, kind: PairingKind, dim: int, strains, stresses,
                 mu0: float | None = None):
        if dim not in (1, 2, 3):
            raise ValueError(f"unsupported dimension {dim}")
        strains = np.asarray(strains, dtype=float).reshape(-1, dim * dim)
        stresses = np.asarray(stresses, dtype=float).reshape(-1, dim * dim)
        if strains.shape != stresses.shape:
            raise ValueError("strain/stress arrays disagree in length")
        if strains.shape[0] == 0:
            raise ValueError("dataset must contain at least one tuple")
        _validate(kind, dim, strains, stresses)
        self.kind = kind
        self.dim = dim
        self.strains = strains
        self.stresses = stresses
        self.mu0 = _checked_mu0(auto_mu0(self) if mu0 is None else mu0)
        self._tree: cKDTree | None = None
        # set by tree(): the orthogonal (k, k) matrix that takes scaled
        # tuples and queries onto the tree's axes
        self.axes: np.ndarray | None = None

    def __len__(self) -> int:
        return self.strains.shape[0]

    def tree(self) -> cKDTree:
        """k-d tree over the scaled tuples on their principal axes.

        Sets `axes`, the eigenvectors of the centred tuples' Gram matrix,
        and builds the tree on `scaled @ axes`; queries go through the
        same product.  The centroid only picks the axes and is not
        subtracted: the tree's splits do not depend on a shift, and
        without one the rounding of a rotated query stays relative to
        the query's own norm, which the near-tie margin is measured on.
        """
        if self._tree is None:
            x = _scaled(self.strains, self.stresses, self.mu0)
            c = x - x.mean(axis=0)
            _, self.axes = np.linalg.eigh(c.T @ c)
            del c
            self._tree = cKDTree(x @ self.axes)
        return self._tree

    def with_mu0(self, mu0: float) -> "DataSet":
        """The same tuples, sharing this set's arrays, under another metric scale.

        A metric scale cannot make a tuple invalid, so they are not
        checked again; the new set builds its own search tree.
        """
        other = copy.copy(self)
        other.mu0 = _checked_mu0(mu0)
        other._tree = other.axes = None
        return other


def _mean_square(rows: np.ndarray, ref: np.ndarray | float = 0.0) -> np.float64:
    """Mean over the rows of |row - ref|^2, the same float as
    `np.mean(np.sum(d * d, axis=1))` for d = rows - ref, without d: the
    per-row sums are taken on blocks of _BLOCK rows."""
    sums = np.empty(len(rows))
    for lo in range(0, len(rows), _BLOCK):
        d = rows[lo:lo + _BLOCK] - ref
        np.sum(d * d, axis=1, out=sums[lo:lo + len(d)])
    return np.mean(sums)


def auto_mu0(dataset: DataSet) -> float:
    """Calibrate the metric scale from the data cloud itself.

    Returns RMS stress magnitude over RMS strain deviation from the
    zero-deformation reference.  Degenerate clouds (all strains at the
    reference, or vanishing stresses) cannot be calibrated and raise.
    """
    ref = dataset.kind.strain_reference(dataset.dim).reshape(-1)
    rms_strain = np.sqrt(_mean_square(dataset.strains, ref))
    rms_stress = np.sqrt(_mean_square(dataset.stresses))
    scale = max(1.0, float(np.sqrt(_mean_square(dataset.strains))))
    if rms_strain <= 100.0 * np.finfo(float).eps * scale:
        raise ValueError("cannot calibrate mu0: all strains sit at the reference state")
    if rms_stress <= 0.0:
        raise ValueError("cannot calibrate mu0: dataset carries no stress")
    return float(rms_stress / rms_strain)


# -- penalty metric ----------------------------------------------------


def penalty_many(strains: np.ndarray, stresses: np.ndarray,
                 assigned: np.ndarray, dataset: DataSet) -> np.ndarray:
    """Vectorized local penalties for states against their assigned tuples.

    A state too far from its tuple for floats has an infinite penalty.
    """
    dd = dataset.dim ** 2
    e = strains.reshape(-1, dd) - dataset.strains[assigned]
    s = stresses.reshape(-1, dd) - dataset.stresses[assigned]
    mu0 = dataset.mu0
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * mu0 * np.sum(e * e, axis=1) + 0.5 / mu0 * np.sum(s * s, axis=1)


def _scaled(strains: np.ndarray, stresses: np.ndarray, mu0: float) -> np.ndarray:
    """Rows [sqrt(mu0/2) strain, sqrt(1/(2 mu0)) stress]: Euclidean = metric."""
    return np.hstack([np.sqrt(0.5 * mu0) * strains, np.sqrt(0.5 / mu0) * stresses])


# near-tie margin on scaled distances, relative to the query's magnitude
# plus its distance; the scaled coordinates, and their rotation onto the
# tree's axes, round at about 1e-15 of that
_TIE_MARGIN = 1e-10


def _tie_margin(distance: np.ndarray | float, points: np.ndarray) -> np.ndarray:
    """Rounding margin on scaled distances `distance` from the scaled rows `points`."""
    return _TIE_MARGIN * (distance + np.linalg.norm(points, axis=1))


# queries per k-d query worker.  On two cores, two workers beat one from
# about twice this many queries on; below that the split costs about as
# much as it saves, so a batch of fewer runs on the calling thread
_QUERIES_PER_WORKER = 4096


def _batch_workers(n_queries: int, workers: int) -> int:
    """Workers for a batch: `workers` at most, one per _QUERIES_PER_WORKER."""
    return max(1, min(workers, n_queries // _QUERIES_PER_WORKER))


def _check_finite(values: np.ndarray, what: str) -> None:
    """Raise naming the first state, a row of `values`, with a non-finite entry."""
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise ValueError(f"state {first}: {what} not finite")


def nearest_many(strains: np.ndarray, stresses: np.ndarray, dataset: DataSet,
                 workers: int = 1) -> np.ndarray:
    """Exact nearest tuple ids for a batch of states; ties go to the lowest id.

    The dataset's k-d tree finds the two closest tuples per state, with
    the state rotated onto the tree's axes.  When the second is farther
    than the first by more than a small relative margin, which bounds the
    rounding of the scaled and rotated coordinates many times over, the
    first is the unique nearest tuple under the directly computed metric.
    Otherwise (a near-tie or duplicate tuples) every tuple in a slightly
    larger ball is re-measured by direct differences.
    `workers` caps the query workers; a batch gets one worker per
    _QUERIES_PER_WORKER queries, so a batch below that runs on the
    calling thread.  Each query is independent, so results do not
    depend on the count.  A state whose scaled coordinates or distance to
    the nearest tuple are not finite (a NaN, or one so far out that the
    distance overflows) has no nearest tuple and raises ValueError.
    """
    dd = dataset.dim ** 2
    qe = np.ascontiguousarray(strains, dtype=float).reshape(-1, dd)
    qs = np.ascontiguousarray(stresses, dtype=float).reshape(-1, dd)
    tree = dataset.tree()
    with np.errstate(invalid="ignore", over="ignore"):
        x = _scaled(qe, qs, dataset.mu0)
        y = x @ dataset.axes
    _check_finite(y, "scaled coordinates are")
    dist, ids = tree.query(y, k=2, workers=_batch_workers(len(y), workers))
    _check_finite(dist[:, 0], "distance to the nearest tuple is")
    out = ids[:, 0].astype(np.int64)
    margin = _tie_margin(dist[:, 0], x)
    near = np.flatnonzero(dist[:, 1] - dist[:, 0] <= margin)
    if near.size:
        balls = tree.query_ball_point(y[near], dist[near, 0] + 2.0 * margin[near],
                                      workers=_batch_workers(near.size, workers))
        for i, ball in zip(near, balls):
            cand = np.sort(np.asarray(ball, dtype=np.int64))
            d2 = penalty_many(np.broadcast_to(qe[i], (cand.size, dd)),
                              np.broadcast_to(qs[i], (cand.size, dd)), cand, dataset)
            out[i] = cand[np.argmin(d2)]
    return out


# -- refinement --------------------------------------------------------


def median_nn_spacing(dataset: DataSet) -> float:
    """Median metric distance from each tuple to its nearest neighbour."""
    if len(dataset) < 2:
        raise ValueError("need at least two tuples to measure spacing")
    tree = dataset.tree()
    # k=2 on the tree's own points: column 1 is the nearest other tuple,
    # or a duplicate at distance 0
    _, ids = tree.query(tree.data, k=2)
    d2 = penalty_many(dataset.strains, dataset.stresses, ids[:, 1], dataset)
    return float(np.median(np.sqrt(d2)))


def refine_around(source, assigned: np.ndarray, current: DataSet,
                  radius: float | None = None, keep_all: bool = False) -> DataSet:
    """Build the next-level dataset around the tuples a solve actually used.

    `assigned` holds tuple ids into `current`.  New tuples come either
    from a larger pool (`source` is a DataSet; all pool tuples within
    `radius` of a used tuple are added, in pool order) or from a generator
    of fresh tuples: `source(centers, radius)` gets the used tuples as a
    DataSet and the radius, and returns an iterable of (strain, stress)
    pairs, each of d*d values in any shape.  Unused tuples of `current`
    are dropped unless `keep_all` is set.  The metric scale mu0 carries
    over unchanged so penalties stay comparable across levels.  The new
    dataset checks its tuples like any other, so a generated pair that is
    not finite, or not symmetric in a symmetric pairing, raises naming its
    tuple in the new dataset.

    A pool is searched on its own tree in the current mu0; a pool under
    another mu0 is converted first, so a caller refining repeatedly from
    one pool converts it once and reuses its tree.  One join of that tree
    with the used tuples, rotated into its frame, finds every pair within
    `radius` plus a margin m that bounds the rounding of the rotation.
    A pool tuple with a pair within `radius - m` is kept, one without a
    pair is not, and one whose pairs all lie in the band between is kept
    when its distance to the nearest used tuple, measured on unrotated
    scaled coordinates, is at most `radius`.
    """
    assigned = np.unique(np.asarray(assigned, dtype=np.int64))
    if assigned.size == 0:
        raise ValueError("refine_around requires a non-empty assignment")
    if np.any(assigned < 0) or np.any(assigned >= len(current)):
        raise ValueError("assignment ids outside the current dataset")
    if radius is None:
        radius = 2.0 * median_nn_spacing(current)
    base_ids = np.arange(len(current)) if keep_all else assigned
    strains = [current.strains[base_ids]]
    stresses = [current.stresses[base_ids]]

    if isinstance(source, DataSet):
        if (source.kind, source.dim) != (current.kind, current.dim):
            raise ValueError("source and current datasets disagree in kind or dimension")
        mu0 = current.mu0
        if source.mu0 != mu0:
            source = source.with_mu0(mu0)
        centres = _scaled(current.strains[assigned], current.stresses[assigned], mu0)
        # one join of the pool's tree with the used tuples rotated into its
        # frame.  m bounds the rounding of the rotation at every centre, so
        # a pair within radius - m is within `radius`, and a tuple without
        # a pair within radius + m is not
        m = 2.0 * float(np.max(_tie_margin(radius, centres)))
        pairs = source.tree().sparse_distance_matrix(
            cKDTree(centres @ source.axes), radius + m, output_type="ndarray")
        inside = pairs["v"] <= radius - m
        keep = np.zeros(len(source), dtype=bool)
        keep[pairs["i"][inside]] = True
        # a tuple with pairs only in the band is measured: its distance to
        # the nearest used tuple on the unrotated scaled coordinates
        band = np.unique(pairs["i"][~inside])
        band = band[~keep[band]]
        if band.size:
            d, _ = cKDTree(centres).query(
                _scaled(source.strains[band], source.stresses[band], mu0), k=1)
            keep[band[d <= radius]] = True
        near = np.flatnonzero(keep)
        strains.append(source.strains[near])
        stresses.append(source.stresses[near])
    else:
        centers = DataSet(current.kind, current.dim, current.strains[assigned],
                          current.stresses[assigned], mu0=current.mu0)
        pairs = list(source(centers, radius))
        if pairs:
            dd = current.dim ** 2
            strains.append(np.array([np.asarray(e, dtype=float).reshape(dd) for e, _ in pairs]))
            stresses.append(np.array([np.asarray(s, dtype=float).reshape(dd) for _, s in pairs]))

    all_e = np.vstack(strains)
    all_s = np.vstack(stresses)
    # first occurrences of byte-identical rows, in their original order
    rows = np.hstack([all_e, all_s])
    _, first = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))),
                         return_index=True)
    keep = np.sort(first)
    return DataSet(current.kind, current.dim, all_e[keep], all_s[keep], mu0=current.mu0)


# -- file format -------------------------------------------------------

_MAGIC = "# dd-dataset v1"


def save_dataset(dataset: DataSet, path) -> None:
    """Write a dataset file (see "File formats" in docs/config.md)."""
    textio.write(path, [_MAGIC, f"kind={dataset.kind.value} dim={dataset.dim} units=SI",
                        *textio.format_rows(dataset.strains, dataset.stresses)])


def load_dataset(path, mu0: float | None = None) -> DataSet:
    """Parse a dataset file; errors carry 1-based line numbers.

    The tuples are parsed straight from the file past its header into
    one (n, 2 d*d) table (`textio.TextFile.rows`), whose column blocks
    are the dataset's strains and stresses.  The file's lines are read
    only when that parse fails or a tuple fails validation, to name the
    line at fault.
    """
    src = textio.read(path, _MAGIC)
    kind, dim = src.field("kind", PairingKind), src.field("dim", int)
    if dim not in (1, 2, 3):
        raise src.error(src.header_line, "dim must be 1, 2 or 3")
    if src.field("units") != "SI":
        raise src.error(src.header_line, f"unsupported units '{src.header['units']}'")
    dd = dim * dim
    table = src.rows(src.header_line, None, 2 * dd)
    if not len(table):
        raise ValueError(f"{src.name}: dataset contains no tuples")
    try:
        return DataSet(kind, dim, table[:, :dd], table[:, dd:], mu0=mu0)
    except ValueError as err:
        # re-raise tuple-level complaints with the file position
        msg = str(err)
        if not msg.startswith("tuple "):
            raise
        row = int(msg.split()[1].rstrip(":"))
        raise src.error(src.numbered(src.header_line)[row][0], msg.split(": ", 1)[1]) from None
