"""Metric, assignment, calibration, refinement, and dataset file IO."""

import io
import os
import re
import shutil
import stat
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree

from conftest import unchecked_tuples
from ddfem import phase_space, textio
from ddfem.phase_space import (DataSet, PairingKind, TupleError, auto_mu0,
                               load_dataset, median_nn_spacing, nearest_many,
                               penalty_many, refine_around, save_dataset)


def flat_set(kind, dim, strains, stresses, mu0=1.0):
    """Raw dataset from flattened rows, which need not be valid tuples."""
    with unchecked_tuples():
        return DataSet(kind, dim, np.asarray(strains, dtype=float),
                       np.asarray(stresses, dtype=float), mu0=mu0)


def first_occurrences(rows):
    """Indices of the first row of each byte pattern, by a byte-key loop."""
    seen, keep = set(), []
    for i, row in enumerate(rows):
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            keep.append(i)
    return keep


def direct_metric(strain, stress, ds):
    """Metric from one state to every tuple, by direct differences."""
    de = ds.strains - np.asarray(strain, dtype=float).reshape(-1)
    dsg = ds.stresses - np.asarray(stress, dtype=float).reshape(-1)
    return (0.5 * ds.mu0 * np.sum(de * de, axis=1)
            + 0.5 / ds.mu0 * np.sum(dsg * dsg, axis=1))


def scalar_metric(strain, stress, tuple_strain, tuple_stress, mu0):
    """Metric between one state and one tuple, reduced to Python floats."""
    de = np.asarray(strain, dtype=float) - tuple_strain
    ds = np.asarray(stress, dtype=float) - tuple_stress
    return 0.5 * mu0 * float(np.sum(de * de)) + 0.5 / mu0 * float(np.sum(ds * ds))


def oracle_nearest(qe, qs, ds):
    """Lowest-id argmin of the direct metric, one state at a time."""
    return np.array([int(np.argmin(direct_metric(e, s, ds)))
                     for e, s in zip(qe, qs)], dtype=np.int64)


def nearest_one(strain, stress, ds):
    return int(nearest_many(np.reshape(strain, (1, -1)),
                            np.reshape(stress, (1, -1)), ds)[0])


@pytest.fixture
def line_set():
    """11 FP tuples on a uniform 1D strain grid, zero stress."""
    strains = np.linspace(1.0, 2.0, 11).reshape(-1, 1)
    return DataSet(PairingKind.FP, 1, strains, np.zeros_like(strains), mu0=2.0)


def write_lines(path, lines, newline="\n"):
    """Write the lines, each ended by `newline`, with no newline translation."""
    path.write_bytes("".join(line + newline for line in lines).encode())


def load_error(path) -> str:
    """The message of the ValueError that load_dataset raises on `path`."""
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    return str(err.value)


def valid_rows(kind, dim, n, rng):
    """n valid tuples as (n, 2 dim^2) rows.  Stress S and strain E are
    symmetric; the strain is E for EPS and I + E for CS and FP, and the FP
    stress is P = F S, so P F^T is symmetric."""
    eps = rng.uniform(-0.01, 0.01, (n, dim, dim))
    s = rng.uniform(-1.0e4, 1.0e4, (n, dim, dim))
    strain = eps + eps.transpose(0, 2, 1)
    stress = s + s.transpose(0, 2, 1)
    if kind is not PairingKind.EPS_SIGMA:
        strain = np.eye(dim) + strain
    if kind is PairingKind.FP:
        stress = strain @ stress
    return np.hstack([strain.reshape(n, -1), stress.reshape(n, -1)])


def fp_rows_2d(n, rng):
    """n valid 2-D FP tuples as (n, 8) rows."""
    return valid_rows(PairingKind.FP, 2, n, rng)


def cached_tables(path):
    """The names in the table cache next to dataset file `path`."""
    cache = path.parent / "__ddcache__"
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


def spy_loadtxt(monkeypatch):
    """A list that gets one entry per np.loadtxt call from here on."""
    calls, real = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def penalty_of(strain, stress, ds):
    """penalty_many for one state against tuple 0 of `ds`, as a float."""
    dd = ds.dim ** 2
    values = penalty_many(np.reshape(strain, (1, dd)), np.reshape(stress, (1, dd)),
                          np.array([0]), ds)
    assert values.shape == (1,)
    return float(values[0])


class TestLocalPenalty:
    def test_coincident_state(self):
        ds = DataSet(PairingKind.FP, 1, [[1.1]], [[3.0]], mu0=5.0)
        assert penalty_of([[1.1]], [[3.0]], ds) == 0.0

    def test_pure_stress_offset(self):
        # |dstress|^2 = 2 at mu0 = 1 gives 0.5/1 * 2 = 1
        ds = flat_set(PairingKind.FP, 2, np.zeros((1, 4)), np.zeros((1, 4)), mu0=1.0)
        stress = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert penalty_of(np.zeros((2, 2)), stress, ds) == 1.0

    def test_mu0_moves_the_two_terms_oppositely(self):
        ds1 = DataSet(PairingKind.FP, 1, [[0.0]], [[0.0]], mu0=1.0)
        ds2 = ds1.with_mu0(2.0)
        strain_only = penalty_of([2.0], [0.0], ds1)
        stress_only = penalty_of([0.0], [2.0], ds1)
        assert penalty_of([2.0], [0.0], ds2) == 2.0 * strain_only
        assert penalty_of([0.0], [2.0], ds2) == 0.5 * stress_only


class TestNearest:
    def test_singleton(self):
        ds = DataSet(PairingKind.FP, 1, [[1.7]], [[0.3]], mu0=1.0)
        assert nearest_one([1.0], [0.0], ds) == 0
        assert nearest_many(np.ones((3, 1)), np.zeros((3, 1)), ds).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("stress, message", [
        (1e300, "state 1: distance to the nearest tuple is not finite"),
        (np.nan, "state 1: scaled coordinates are not finite"),
        (-np.inf, "state 1: scaled coordinates are not finite")])
    def test_a_state_without_a_finite_distance_raises(self, stress, message):
        # 1e300 is finite, but its squared distance to every tuple overflows
        ds = DataSet(PairingKind.FP, 1, np.linspace(1.0, 2.0, 5)[:, None],
                     np.linspace(0.0, 1.0e6, 5)[:, None], mu0=1.0)
        assert nearest_many(ds.strains[1:3], ds.stresses[1:3], ds).tolist() == [1, 2]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nearest_many(np.array([1.25, 1.5]), np.array([2.5e5, stress]), ds)

    def test_exact_hit(self, line_set, rng):
        assert nearest_one(line_set.strains[4], line_set.stresses[4], line_set) == 4
        ds = flat_set(PairingKind.CS, 2, rng.standard_normal((300, 4)),
                      rng.standard_normal((300, 4)), mu0=0.4)
        got = nearest_many(ds.strains, ds.stresses, ds)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.arange(300))

    def test_tie_breaks_to_lowest_id(self):
        strains = np.array([[10.0], [20.0], [30.0], [1.0],
                            [40.0], [50.0], [60.0], [3.0]])
        ds = DataSet(PairingKind.FP, 1, strains, np.zeros((8, 1)), mu0=1.0)
        # ids 3 and 7 sit symmetrically about the query
        assert nearest_one([2.0], [0.0], ds) == 3

    def test_tie_with_unsorted_ids(self):
        strains = np.array([[10.0], [1.0], [5.0], [3.0]])
        ds = DataSet(PairingKind.FP, 1, strains, np.zeros((4, 1)), mu0=1.0)
        # ids 1 and 3 are equidistant from the query; lowest id wins
        assert nearest_one([2.0], [0.0], ds) == 1

    def test_three_duplicates_tie_to_lowest_id(self, rng):
        strains = rng.standard_normal((50, 4))
        stresses = rng.standard_normal((50, 4))
        for j in (31, 44):                      # copies of tuple 17
            strains[j], stresses[j] = strains[17], stresses[17]
        ds = flat_set(PairingKind.CS, 2, strains, stresses, mu0=1.7)
        assert nearest_one(strains[44], stresses[44], ds) == 17
        qe = strains[17] + 1e-3 * rng.standard_normal((20, 4))
        qs = stresses[17] + 1e-3 * rng.standard_normal((20, 4))
        got = nearest_many(qe, qs, ds)
        assert np.array_equal(got, oracle_nearest(qe, qs, ds))
        assert not np.any(np.isin(got, [31, 44]))

    def test_many_duplicates_tie_to_lowest_id(self, rng):
        # more copies than the tree's two candidates can hold
        strains = rng.standard_normal((2000, 4))
        stresses = rng.standard_normal((2000, 4))
        copies = rng.choice(np.arange(6, 2000), size=10, replace=False)
        strains[copies], stresses[copies] = strains[5], stresses[5]
        ds = flat_set(PairingKind.CS, 2, strains, stresses, mu0=1.7)
        qe = strains[5] + 1e-3 * rng.standard_normal((50, 4))
        qs = stresses[5] + 1e-3 * rng.standard_normal((50, 4))
        assert np.all(nearest_many(qe, qs, ds) == 5)

    def test_grid_midpoints_tie_to_lowest_id(self):
        # queries halfway between grid tuples are exact ties
        g = np.arange(12, dtype=float)
        e1, e2 = np.meshgrid(g, g, indexing="ij")
        strains = np.column_stack([e1.ravel(), e2.ravel()])
        ds = DataSet(PairingKind.FP, 1, strains[:, :1], strains[:, 1:], mu0=1.0)
        h = np.arange(11) + 0.5
        q1, q2 = np.meshgrid(h, g, indexing="ij")
        qe, qs = q1.reshape(-1, 1), q2.reshape(-1, 1)
        assert np.array_equal(nearest_many(qe, qs, ds), oracle_nearest(qe, qs, ds))
        assert np.array_equal(nearest_many(qs, qe, ds), oracle_nearest(qs, qe, ds))

    # dim 3 gives 18 components per tuple, as in the CS pairing
    @pytest.mark.parametrize("dim,n,q", [(1, 400, 800), (2, 600, 400), (3, 800, 300)])
    def test_matches_brute_force(self, dim, n, q, rng):
        dd = dim * dim
        ds = flat_set(PairingKind.CS, dim, rng.standard_normal((n, dd)),
                      rng.standard_normal((n, dd)), mu0=1.3)
        qe = 1.5 * rng.standard_normal((q, dd))
        qs = 1.5 * rng.standard_normal((q, dd))
        assert np.array_equal(nearest_many(qe, qs, ds), oracle_nearest(qe, qs, ds))

    def test_matches_scalar_brute_force(self, rng):
        ds = flat_set(PairingKind.CS, 2, rng.standard_normal((40, 4)),
                      rng.standard_normal((40, 4)), mu0=3.1)
        qe = rng.standard_normal((25, 4))
        qs = rng.standard_normal((25, 4))
        got = nearest_many(qe, qs, ds)
        for i in range(25):
            d2 = [scalar_metric(qe[i], qs[i], ds.strains[j], ds.stresses[j], 3.1)
                  for j in range(40)]
            assert got[i] == int(np.argmin(d2))

    def test_degenerate_axis(self, rng):
        strains = np.column_stack([np.full(30, 2.0), rng.standard_normal(30),
                                   rng.standard_normal(30), np.full(30, 0.5)])
        ds = flat_set(PairingKind.CS, 2, strains, rng.standard_normal((30, 4)))
        qe = rng.standard_normal((40, 4))
        qs = rng.standard_normal((40, 4))
        assert np.array_equal(nearest_many(qe, qs, ds), oracle_nearest(qe, qs, ds))

    def test_worker_count_does_not_change_results(self, rng, monkeypatch):
        # a small batch per worker, so that 3,050 queries really fan out
        monkeypatch.setattr(phase_space, "_QUERIES_PER_WORKER", 256)
        ds = flat_set(PairingKind.FP, 2, rng.standard_normal((2000, 4)),
                      rng.standard_normal((2000, 4)), mu0=0.7)
        qe = np.vstack([rng.standard_normal((3000, 4)), ds.strains[:50]])
        qs = np.vstack([rng.standard_normal((3000, 4)), ds.stresses[:50]])
        spy = WorkerSpy(ds)
        a = nearest_many(qe, qs, ds, workers=1)
        b = nearest_many(qe, qs, ds, workers=4)
        assert spy.calls == [("query", 1), ("query", 4)]
        assert np.array_equal(a, b)
        assert np.array_equal(a, oracle_nearest(qe, qs, ds))

    @pytest.mark.parametrize("n, asked, expected",
                             [(1, 4, 1), (8191, 4, 1), (8192, 4, 2), (8192, 1, 1),
                              (20_000, 4, 4), (25_600, 2, 2), (25_600, 8, 6)])
    def test_workers_follow_the_batch_size(self, n, asked, expected):
        assert phase_space._QUERIES_PER_WORKER == 4096
        assert phase_space._batch_workers(n, asked) == expected

    def test_small_batch_runs_on_one_worker(self, rng):
        # duplicate tuples put some queries in the near-tie ball query too
        strains = rng.standard_normal((500, 4))
        stresses = rng.standard_normal((500, 4))
        strains[250:], stresses[250:] = strains[:250], stresses[:250]
        ds = flat_set(PairingKind.FP, 2, strains, stresses, mu0=0.7)
        spy = WorkerSpy(ds)
        ids = nearest_many(ds.strains[:300], ds.stresses[:300], ds, workers=4)
        assert spy.calls == [("query", 1), ("query_ball_point", 1)]
        assert np.array_equal(ids, oracle_nearest(ds.strains[:300], ds.stresses[:300], ds))

    def test_scaling_stress_and_mu0_together_is_neutral(self, rng):
        """Multiplying stresses and mu0 by s rescales all penalties by s."""
        strains = rng.standard_normal((60, 1))
        stresses = rng.standard_normal((60, 1))
        qe = rng.standard_normal((20, 1))
        qs = rng.standard_normal((20, 1))
        s = 1.0e6
        a = nearest_many(qe, qs, DataSet(PairingKind.FP, 1, strains, stresses, mu0=2.0))
        b = nearest_many(qe, s * qs,
                         DataSet(PairingKind.FP, 1, strains, s * stresses, mu0=2.0 * s))
        assert np.array_equal(a, b)

    def test_tree_is_cached_per_dataset(self, line_set):
        assert line_set.tree() is line_set.tree()
        other = line_set.with_mu0(5.0)
        assert other.tree() is not line_set.tree()
        # the copy's tree uses its own scale: one grid step is sqrt(5/2) * 0.1
        assert_allclose(median_nn_spacing(other), np.sqrt(2.5) * 0.1, rtol=1e-12)

    def test_memory_is_linear_in_queries_and_tuples(self, rng):
        """80x80 QUAD4 FP case: 25,600 states against 15,625 2D tuples.

        A dense distance matrix would take gigabytes; the tree keeps the
        peak to a few arrays of the query and tuple sizes.
        """
        strains = np.eye(2).reshape(1, 4) + 0.01 * rng.standard_normal((15_625, 4))
        stresses = 1.0e4 * rng.standard_normal((15_625, 4))
        ds = flat_set(PairingKind.FP, 2, strains, stresses, mu0=1.0e6)
        qe = np.eye(2).reshape(1, 4) + 0.01 * rng.standard_normal((25_600, 4))
        qs = 1.0e4 * rng.standard_normal((25_600, 4))
        tracemalloc.start()
        try:
            ids = nearest_many(qe, qs, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ids.shape == (25_600,)
        assert peak < 64 * 2 ** 20
        sample = rng.choice(25_600, size=200, replace=False)
        assert np.array_equal(ids[sample], oracle_nearest(qe[sample], qs[sample], ds))


class WorkerSpy:
    """Stands in for a dataset's k-d tree and records each call's workers."""

    def __init__(self, ds):
        self.tree = ds.tree()
        self.calls = []
        ds._tree = self

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def query(self, x, k=1, workers=1):
        self.calls.append(("query", workers))
        return self.tree.query(x, k=k, workers=workers)

    def query_ball_point(self, x, r, workers=1):
        self.calls.append(("query_ball_point", workers))
        return self.tree.query_ball_point(x, r, workers=workers)


def logged_trees(monkeypatch):
    """Have phase_space build its k-d trees as a subclass that logs its calls.

    Returns the log: ("build", rows), ("join", rows of the tree joined on,
    pairs found), ("query", rows) and ("query_ball_point", rows).
    """
    log = []

    class LoggedTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            log.append(("build", len(data)))

        def sparse_distance_matrix(self, other, max_distance, *args, **kwargs):
            pairs = super().sparse_distance_matrix(other, max_distance, *args, **kwargs)
            log.append(("join", self.n, len(pairs)))
            return pairs

        def query(self, x, *args, **kwargs):
            log.append(("query", len(x)))
            return super().query(x, *args, **kwargs)

        def query_ball_point(self, x, *args, **kwargs):
            log.append(("query_ball_point", len(x)))
            return super().query_ball_point(x, *args, **kwargs)

    monkeypatch.setattr(phase_space, "cKDTree", LoggedTree)
    return log


def random_rotation(rng, k):
    """A (k, k) orthogonal matrix, Haar-distributed."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def with_duplicates(rows, rng, count):
    """Overwrite `count` rows with copies of lower rows; (sources, copies)."""
    copies = rng.choice(np.arange(len(rows) // 2, len(rows)), size=count, replace=False)
    sources = rng.integers(0, len(rows) // 2, size=count)
    rows[copies] = rows[sources]
    return sources, copies


class TestPrincipalAxisSearch:
    """Data spanning few directions, where the tree's rotation matters."""

    def test_rotated_low_rank_subspace_with_duplicates(self, rng):
        # 8 components confined to a randomly rotated 3D subspace
        basis = random_rotation(rng, 8)[:, :3]
        z = rng.standard_normal((3000, 3)) * [3.0, 1.0, 0.2]
        rows = rng.standard_normal(8) + z @ basis.T
        sources, copies = with_duplicates(rows, rng, 150)
        ds = flat_set(PairingKind.FP, 2, rows[:, :4], rows[:, 4:], mu0=2.0)
        a, b = rng.integers(0, 3000, size=(2, 300))
        off = 1e-3 * rng.standard_normal((300, 8))
        queries = np.vstack([rows[copies], 0.5 * (rows[a] + rows[b]),
                             rows[a] + off, rows[0] + z[:300] @ basis.T + off])
        qe, qs = queries[:, :4], queries[:, 4:]
        got = nearest_many(qe, qs, ds)
        assert np.array_equal(got, oracle_nearest(qe, qs, ds))
        assert np.array_equal(got[:150], sources)
        # the tree spreads along three of its axes only
        spread = np.ptp(ds.tree().data, axis=0)
        assert np.count_nonzero(spread > 1e-12 * spread.max()) == 3
        assert_allclose(ds.axes.T @ ds.axes, np.eye(8), atol=1e-14)

    def test_cs_tuples_with_duplicated_symmetric_components(self, rng):
        # 18 stored components, of which the three off-diagonal pairs of
        # the strain and of the stress repeat: six exact-zero directions
        n = 2000
        e = 0.05 * rng.standard_normal((n, 3, 3))
        e = 0.5 * (e + np.swapaxes(e, 1, 2))
        trace = np.trace(e, axis1=1, axis2=2)[:, None, None]
        c = (np.eye(3) + 2.0 * e).reshape(n, 9)
        s = (1.0e3 * (trace * np.eye(3) + e + 5.0 * e @ e)).reshape(n, 9)
        rows = np.hstack([c, s])
        sources, copies = with_duplicates(rows, rng, 100)
        ds = DataSet(PairingKind.CS, 3, rows[:, :9], rows[:, 9:], mu0=1.0e3)
        spread = np.ptp(ds.tree().data, axis=0)
        assert np.count_nonzero(spread <= 1e-12 * spread.max()) == 6
        near = rng.integers(0, n, size=400)
        sym = 0.01 * rng.standard_normal((400, 3, 3))
        sym = (sym + np.swapaxes(sym, 1, 2)).reshape(400, 9)
        skew = 0.01 * rng.standard_normal((200, 9))
        qe = np.vstack([rows[copies, :9], rows[near, :9] + sym,
                        rows[near[:200], :9] + skew])
        qs = np.vstack([rows[copies, 9:], rows[near, 9:] + 1.0e3 * sym,
                        rows[near[:200], 9:] - 1.0e3 * skew])
        got = nearest_many(qe, qs, ds)
        assert np.array_equal(got, oracle_nearest(qe, qs, ds))
        assert np.array_equal(got[:100], sources)

    def test_near_ties_far_from_the_origin(self, rng):
        # a unit lattice in two components and a rotated 3D cloud, both
        # offset by 1e6 in all 8: the margin grows with |q|, and the
        # rotated coordinates must stay within it
        g = np.arange(6, dtype=float)
        lattice = np.zeros((36, 8))
        lattice[:, 0], lattice[:, 5] = [a.ravel() for a in np.meshgrid(g, g, indexing="ij")]
        cloud = rng.standard_normal((500, 3)) @ random_rotation(rng, 8)[:3]
        rows = 1.0e6 + np.vstack([lattice, cloud])
        with_duplicates(rows, rng, 40)
        ds = flat_set(PairingKind.FP, 2, rows[:, :4], rows[:, 4:], mu0=1.0)
        # half-lattice points are exact ties of two or four tuples
        h = np.arange(11) / 2.0
        half = np.zeros((121, 8))
        half[:, 0], half[:, 5] = [a.ravel() for a in np.meshgrid(h, h, indexing="ij")]
        a, b = rng.integers(36, len(rows), size=(2, 200))
        queries = np.vstack([1.0e6 + half, 0.5 * (rows[a] + rows[b]), rows[a]])
        qe, qs = queries[:, :4], queries[:, 4:]
        assert np.array_equal(nearest_many(qe, qs, ds), oracle_nearest(qe, qs, ds))
        assert np.array_equal(nearest_many(qs, qe, ds), oracle_nearest(qs, qe, ds))


class TestAutoMu0:
    def test_constant_ratio(self, rng):
        dim = 2
        dev = rng.standard_normal((50, dim * dim))
        strains = np.eye(dim).reshape(1, -1) + dev
        norms = np.sqrt(np.sum(dev * dev, axis=1))
        stresses = 2.0 * dev * (1.0 / 1.0)  # |stress| = 2 |strain - I| rowwise
        stresses = dev / norms[:, None] * (2.0 * norms[:, None])
        ds = flat_set(PairingKind.CS, dim, strains, stresses)
        assert_allclose(auto_mu0(ds), 2.0, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blockwise_sums_equal_the_one_shot_formula_bit_for_bit(self, dim, rng):
        block, dd = phase_space._BLOCK, dim * dim
        for n in (block - 1, block, block + 1, 3 * block, 3 * block + 17):
            # magnitudes over six decades, so that the summation order shows
            table = rng.standard_normal((n, 2 * dd)) * 10.0 ** rng.integers(-3, 3, (n, 1))
            strains, stresses = table[:, :dd], table[:, dd:]
            ds = flat_set(PairingKind.FP, dim, strains, stresses)
            dev = strains - PairingKind.FP.strain_reference(dim).reshape(-1)
            want = float(np.sqrt(np.mean(np.sum(stresses * stresses, axis=1)))
                         / np.sqrt(np.mean(np.sum(dev * dev, axis=1))))
            assert auto_mu0(ds).hex() == want.hex()

    def test_singleton_rod_tuple(self):
        ds = DataSet(PairingKind.FP, 1, [[2.0]], [[3.0]], mu0=1.0)
        assert auto_mu0(ds) == 3.0

    def test_all_strains_at_reference_raise(self):
        ds = DataSet(PairingKind.FP, 1, [[1.0], [1.0]], [[1.0], [2.0]], mu0=1.0)
        with pytest.raises(ValueError, match="reference"):
            auto_mu0(ds)

    def test_zero_stress_raises(self):
        ds = DataSet(PairingKind.FP, 1, [[1.5], [2.0]], [[0.0], [0.0]], mu0=1.0)
        with pytest.raises(ValueError, match="stress"):
            auto_mu0(ds)


class TestDataSetValidation:
    def test_asymmetric_cs_strain_rejected(self):
        strain = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DataSet(PairingKind.CS, 2, strain, np.zeros((2, 2)), mu0=1.0)

    def test_fp_angular_momentum_violation_rejected(self):
        f = np.eye(2)
        p = np.array([[0.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="momentum"):
            DataSet(PairingKind.FP, 2, f, p, mu0=1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DataSet(PairingKind.FP, 1, np.array([np.nan]), np.array([0.0]), mu0=1.0)

    def test_lowest_offending_tuple_is_named(self):
        e = np.tile(np.eye(2).reshape(1, 4), (9, 1))
        s = np.zeros((9, 4))
        s[7, 1] = 1.0                  # asymmetric stress
        e[5, 2] = 0.5                  # asymmetric strain
        e[3, 0] = np.inf               # non-finite, and nothing else wrong
        e[6, 0] = np.nan
        with pytest.raises(ValueError, match=r"^tuple 3: non-finite component$"):
            DataSet(PairingKind.CS, 2, e, s, mu0=1.0)
        e[3, 0] = 1.0
        with pytest.raises(ValueError, match=r"^tuple 5: strain tensor is not symmetric$"):
            DataSet(PairingKind.CS, 2, e, s, mu0=1.0)

    def test_the_error_carries_the_tuple_index_and_reason(self):
        e = np.ones((3, 1))
        e[2, 0] = np.nan
        with pytest.raises(TupleError) as err:
            DataSet(PairingKind.FP, 1, e, np.zeros((3, 1)), mu0=1.0)
        assert (err.value.index, err.value.reason) == (2, "non-finite component")

    def test_first_failed_check_of_a_tuple_is_named(self):
        # tuple 2 fails every check; finiteness is reported first
        e = np.tile(np.eye(2).reshape(1, 4), (3, 1))
        s = np.zeros((3, 4))
        e[2] = [1.0, 0.4, 0.0, np.nan]
        s[2] = [0.0, 1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match=r"^tuple 2: non-finite component$"):
            DataSet(PairingKind.CS, 2, e, s, mu0=1.0)
        e[2, 3] = 1.0
        with pytest.raises(ValueError, match=r"^tuple 2: strain tensor is not symmetric$"):
            DataSet(PairingKind.CS, 2, e, s, mu0=1.0)

    @pytest.mark.parametrize("kind", [PairingKind.FP, PairingKind.CS])
    def test_batched_checks_match_a_per_tuple_oracle(self, kind, rng):
        from ddfem.tensors import angular_momentum_defect, is_symmetric

        def oracle(e, s):
            for i in range(len(e)):
                ei, si = e[i].reshape(3, 3), s[i].reshape(3, 3)
                if not (np.all(np.isfinite(ei)) and np.all(np.isfinite(si))):
                    return f"tuple {i}: non-finite component"
                if kind.symmetric:
                    if not is_symmetric(ei, 1e-10):
                        return f"tuple {i}: strain tensor is not symmetric"
                    if not is_symmetric(si, 1e-10):
                        return f"tuple {i}: stress tensor is not symmetric"
                elif angular_momentum_defect(ei, si) > 1e-8:
                    return f"tuple {i}: FP pair violates angular momentum balance"
            return None

        block = phase_space._BLOCK
        for n in [40] * 27 + [block + 1, 2 * block, 2 * block + 40]:
            f = np.eye(3) + 0.2 * rng.normal(size=(n, 3, 3))
            sym = rng.normal(size=(n, 3, 3))
            sym = sym + np.swapaxes(sym, 1, 2)
            if kind is PairingKind.FP:
                e, s = f, f @ sym
            else:
                e, s = np.swapaxes(f, 1, 2) @ f, sym
            e, s = e.reshape(n, 9), s.reshape(n, 9)
            # a few defects near and far above the tolerances
            for _ in range(rng.integers(0, 4)):
                i, c = rng.integers(n), rng.integers(9)
                target = e if rng.random() < 0.5 else s
                target[i, c] += rng.choice([np.nan, 1e-3, 1e-9, 1e-11])
            want = oracle(e, s)
            if want is None:
                DataSet(kind, 3, e, s, mu0=1.0)
            else:
                with pytest.raises(ValueError) as excinfo:
                    DataSet(kind, 3, e, s, mu0=1.0)
                assert str(excinfo.value) == want

    def test_a_bad_tuple_in_a_later_block_is_named_by_its_global_index(self):
        block = phase_space._BLOCK
        n = 2 * block + 100
        e = np.tile(np.eye(2).reshape(1, 4), (n, 1))
        s = np.zeros((n, 4))
        s[block + 37, 1] = 1.0         # asymmetric stress, in the second block
        e[n - 1, 0] = np.nan           # and a defect in the third
        with pytest.raises(ValueError,
                           match=f"^tuple {block + 37}: stress tensor is not symmetric$"):
            DataSet(PairingKind.CS, 2, e, s, mu0=1.0)
        s[block + 37, 1] = 0.0
        with pytest.raises(ValueError, match=f"^tuple {n - 1}: non-finite component$"):
            DataSet(PairingKind.CS, 2, e, s, mu0=1.0)

    def test_with_mu0_shares_the_arrays_and_checks_no_tuple(self, line_set, monkeypatch):
        checked = []
        validate = phase_space._validate
        monkeypatch.setattr(phase_space, "_validate",
                            lambda *args: checked.append(args) or validate(*args))
        other = line_set.with_mu0(7.0)
        assert checked == []
        assert np.shares_memory(other.strains, line_set.strains)
        assert np.shares_memory(other.stresses, line_set.stresses)
        assert other.mu0 == 7.0 and line_set.mu0 == 2.0

    @pytest.mark.parametrize("mu0", [0.0, -1.0, np.nan, np.inf])
    def test_with_mu0_rejects_a_scale_that_is_not_positive_and_finite(self, line_set, mu0):
        with pytest.raises(ValueError, match=f"^mu0 must be positive and finite, got {mu0}$"):
            line_set.with_mu0(mu0)

    def test_with_mu0_copies(self, line_set):
        other = line_set.with_mu0(7.0)
        assert other.mu0 == 7.0 and line_set.mu0 == 2.0
        assert np.array_equal(other.strains, line_set.strains)


class TestRefineAround:
    def test_grid_neighbors_within_one_step(self, line_set):
        h = 0.1  # strain grid step
        step = np.sqrt(0.5 * line_set.mu0) * h  # metric length of one step
        out = refine_around(line_set, np.array([5]), line_set,
                            radius=1.001 * step, keep_all=False)
        assert sorted(out.strains[:, 0].tolist()) == [1.4, 1.5, 1.6]

    def test_assigned_always_kept(self, line_set, rng):
        source = DataSet(PairingKind.FP, 1, rng.uniform(1.0, 2.0, (50, 1)),
                         np.zeros((50, 1)), mu0=line_set.mu0)
        out = refine_around(source, np.array([0, 10]), line_set, radius=0.01)
        for i in (0, 10):
            assert np.any(np.all(out.strains == line_set.strains[i], axis=1))

    def test_keep_all_retains_unassigned(self, line_set):
        out = refine_around(line_set, np.array([5]), line_set,
                            radius=1e-9, keep_all=True)
        assert len(out) == len(line_set)

    def test_empty_assignment_raises(self, line_set):
        with pytest.raises(ValueError, match="assignment"):
            refine_around(line_set, np.array([], dtype=int), line_set)

    def test_duplicates_collapse(self, line_set):
        out = refine_around(line_set, np.arange(len(line_set)), line_set,
                            radius=10.0)
        assert len(out) == len(line_set)

    def test_duplicates_keep_first_occurrences_in_order(self, line_set):
        zero, minus_zero = [0.0], [-0.0]
        pool = flat_set(PairingKind.FP, 1,
                        [[1.25], line_set.strains[5], [1.25], [1.25], [1.05]],
                        [zero, line_set.stresses[5],      # tuple 5 again
                         minus_zero,                      # other bytes: kept
                         zero, zero], mu0=line_set.mu0)
        # the radius reaches every pool tuple
        out = refine_around(pool, np.array([5, 2]), line_set, radius=1.0)
        assert out.strains[:, 0].tolist() == [line_set.strains[2, 0],
                                              line_set.strains[5, 0],
                                              1.25, 1.25, 1.05]
        assert np.signbit(out.stresses[:, 0]).tolist() == [False, False, False,
                                                          True, False]

    def test_dedupe_matches_a_byte_key_loop(self, rng):
        current = flat_set(PairingKind.CS, 2, rng.integers(-2, 3, (60, 4)) * 0.5,
                           rng.integers(-2, 3, (60, 4)) * 0.5)
        support = np.arange(0, 60, 3)
        pool_e = rng.integers(-2, 3, (400, 4)) * 0.5
        pool_s = rng.integers(-2, 3, (400, 4)) * 0.5
        pool_e[100:200], pool_s[100:200] = pool_e[:100], pool_s[:100]
        # rows 150-199 equal rows 50-99 but for the sign of their zeros
        pool_s[150:200] = np.where(pool_s[150:200] == 0.0, -0.0, pool_s[150:200])
        pool = flat_set(PairingKind.CS, 2, pool_e, pool_s)

        # every pair of rows lies within a metric distance of 4
        with unchecked_tuples():
            out = refine_around(pool, support, current, radius=10.0)
        rows = np.vstack([np.hstack([current.strains[support], current.stresses[support]]),
                          np.hstack([pool_e, pool_s])])
        keep = first_occurrences(rows)
        assert len(keep) < len(rows)
        assert np.array_equal(np.hstack([out.strains, out.stresses]), rows[keep])
        assert np.array_equal(np.signbit(out.stresses), np.signbit(rows[keep, 4:]))

    def test_pool_duplicates_keep_the_first_selected_copy(self, line_set):
        """A pool with copies of its own rows, of used tuples and of unused
        ones, refined at a radius that selects only some of them.

        Tuple 6 of the current level is not used, so its first copy lies
        outside the selection; the pool's later copy lies inside the
        radius and is kept, once.
        """
        e, s = line_set.strains, line_set.stresses
        zero, minus_zero = [0.0], [-0.0]
        pool_rows = [([1.9], zero),          # outside the radius
                     (e[6], s[6]),           # unused tuple 6, inside: kept
                     ([1.45], zero),         # inside: kept
                     (e[5], s[5]),           # used tuple 5: dropped
                     ([1.9], zero),          # copy of pool row 0, outside
                     ([1.45], zero),         # copy of pool row 2: dropped
                     (e[6], s[6]),           # copy of pool row 1: dropped
                     (e[4], s[4]),           # used tuple 4: dropped
                     (e[0], s[0]),           # unused tuple 0, outside
                     ([1.45], minus_zero)]   # other bytes: kept
        pool = flat_set(PairingKind.FP, 1, [r[0] for r in pool_rows],
                        [r[1] for r in pool_rows], mu0=line_set.mu0)
        support = np.array([5, 4])
        radius = 0.12
        out = refine_around(pool, support, line_set, radius=radius)
        assert out.strains[:, 0].tolist() == [e[4, 0], e[5, 0], e[6, 0], 1.45, 1.45]
        assert np.signbit(out.stresses[:, 0]).tolist() == [False] * 4 + [True]

        centers = flat_set(PairingKind.FP, 1, e[[4, 5]], s[[4, 5]], mu0=line_set.mu0)
        d = np.sqrt([direct_metric(pe, ps, centers).min()
                     for pe, ps in zip(pool.strains, pool.stresses)])
        rows = np.vstack([np.hstack([e[[4, 5]], s[[4, 5]]]),
                          np.hstack([pool.strains, pool.stresses])[d <= radius]])
        keep = first_occurrences(rows)
        assert np.array_equal(np.hstack([out.strains, out.stresses]), rows[keep])
        assert np.array_equal(np.signbit(out.stresses), np.signbit(rows[keep, 1:]))

    def test_spacing_on_uniform_grid(self, line_set):
        expected = np.sqrt(0.5 * line_set.mu0) * 0.1
        assert_allclose(median_nn_spacing(line_set), expected, rtol=1e-12)

    def test_spacing_matches_direct_oracle(self, rng):
        ds = flat_set(PairingKind.CS, 2, rng.standard_normal((300, 4)),
                      rng.standard_normal((300, 4)), mu0=2.3)
        mins = []
        for i in range(len(ds)):
            d2 = direct_metric(ds.strains[i], ds.stresses[i], ds)
            d2[i] = np.inf
            mins.append(d2.min())
        assert_allclose(median_nn_spacing(ds), np.median(np.sqrt(mins)), rtol=1e-12)

    def test_spacing_sees_duplicates(self):
        ds = DataSet(PairingKind.FP, 1, [[1.0], [1.5], [1.5], [2.0], [3.0]],
                     np.zeros((5, 1)), mu0=1.0)
        # nearest-other distances 0.5, 0, 0, 0.5, 1 (in strain units)
        assert_allclose(median_nn_spacing(ds), np.sqrt(0.5) * 0.5, rtol=1e-12)

    @pytest.mark.parametrize("reach", ["some", "none"])
    @pytest.mark.parametrize("kind, dim", [(PairingKind.FP, 1), (PairingKind.FP, 2),
                                           (PairingKind.CS, 2), (PairingKind.CS, 3)],
                             ids=["FP-1D", "FP-2D", "CS-2D", "CS-3D"])
    def test_pool_selection_matches_direct_oracle(self, kind, dim, reach, rng, monkeypatch):
        dd = dim * dim
        current = flat_set(kind, dim, rng.standard_normal((40, dd)),
                           rng.standard_normal((40, dd)), mu0=0.8)
        pool = flat_set(kind, dim, rng.standard_normal((500, dd)),
                        rng.standard_normal((500, dd)), mu0=3.0)
        support = np.array([3, 9, 17, 30])
        # distances in the current level's scaling, not the pool's
        centers = flat_set(kind, dim, current.strains[support],
                           current.stresses[support], mu0=current.mu0)
        d = np.sqrt([direct_metric(e, s, centers).min()
                     for e, s in zip(pool.strains, pool.stresses)])
        # midway between the 100th and 101st nearest pool tuples, or
        # short of the nearest, so that the join finds no pair at all
        near = np.sort(d)
        radius = 0.5 * (near[99] + near[100]) if reach == "some" else 0.5 * near[0]
        log = logged_trees(monkeypatch)
        with unchecked_tuples():
            out = refine_around(pool, support, current, radius=radius)
        selected = d <= radius
        assert np.count_nonzero(selected) == (100 if reach == "some" else 0)
        assert np.array_equal(out.strains, np.vstack([current.strains[support],
                                                      pool.strains[selected]]))
        assert np.array_equal(out.stresses, np.vstack([current.stresses[support],
                                                       pool.stresses[selected]]))
        joins = [call for call in log if call[0] == "join"]
        assert len(joins) == 1 and joins[0][1] == len(pool)
        assert (joins[0][2] == 0) == (reach == "none")

    def test_one_join_on_the_pool_tree_and_no_ball_query(self, rng, monkeypatch):
        """A pool under the current mu0 is joined on its own cached tree;
        with no pool tuple near the radius, no support tree is built."""
        log = logged_trees(monkeypatch)
        current = flat_set(PairingKind.FP, 2, rng.standard_normal((40, 4)),
                           rng.standard_normal((40, 4)), mu0=0.8)
        pool = flat_set(PairingKind.FP, 2, rng.standard_normal((2000, 4)),
                        rng.standard_normal((2000, 4)), mu0=0.8)
        tree = pool.tree()
        support = np.array([1, 5, 8, 13, 21, 34])
        with unchecked_tuples():
            out = refine_around(pool, support, current, radius=1.0)
        assert pool.tree() is tree
        assert log[0] == ("build", len(pool))
        assert log[1] == ("build", support.size)
        assert log[2][:2] == ("join", len(pool)) and log[2][2] > 0
        assert len(log) == 3
        assert support.size < len(out) < support.size + len(pool)

    def test_pool_selection_at_the_radius(self, rng, monkeypatch):
        """Pool tuples at exactly `radius`, one ulp inside and one outside.

        With mu0 = 2 the scaled coordinates are the strain and half the
        stress, both exact.  A pool tuple that differs from a support
        tuple in one component, by a difference that subtracts exactly,
        lies at exactly that distance in the tree and in the direct
        metric alike.
        """
        current = flat_set(PairingKind.CS, 2, 1.0 + 0.25 * rng.integers(0, 4, (30, 4)),
                           0.5 + 0.25 * rng.integers(0, 4, (30, 4)), mu0=2.0)
        support = np.array([2, 11, 23])
        current.strains[support] = [[1.0, 1.0, 1.0, 1.0], [1.75, 1.0, 1.75, 1.0],
                                    [1.0, 1.75, 1.0, 1.75]]
        current.stresses[support] = 0.5 + 0.75 * (current.strains[support] - 1.0)
        radius = 0.25
        rows = []
        for i, centre in enumerate(support):
            e, s = current.strains[centre], current.stresses[centre]
            for comp in range(4):
                # a strain component `radius` above the support tuple's, or a
                # stress component 2 * radius above (half of it once scaled),
                # then one ulp of the stored value down, none, and one up
                on_strain = (i + comp) % 2 == 1
                base = e[comp] + radius if on_strain else s[comp] + 2.0 * radius
                for value in (np.nextafter(base, 0.0), base, np.nextafter(base, 4.0)):
                    ee, ss = e.copy(), s.copy()
                    (ee if on_strain else ss)[comp] = value
                    rows.append(np.hstack([ee, ss]))
        edge = np.array(rows)
        pool_rows = np.vstack([np.hstack([rng.uniform(0.5, 2.5, (300, 4)),
                                          rng.uniform(0.0, 2.0, (300, 4))]),
                               edge, edge[::5],
                               np.hstack([current.strains[support[:1]],
                                          current.stresses[support[:1]]])])
        pool_rows = pool_rows[rng.permutation(len(pool_rows))]
        # the pool's own mu0 differs: the selection uses the current one
        pool = flat_set(PairingKind.CS, 2, pool_rows[:, :4], pool_rows[:, 4:], mu0=5.0)
        log = logged_trees(monkeypatch)
        with unchecked_tuples():
            out = refine_around(pool, support, current, radius=radius)

        centers = flat_set(PairingKind.CS, 2, current.strains[support],
                           current.stresses[support], mu0=current.mu0)
        d = np.sqrt([direct_metric(e, s, centers).min()
                     for e, s in zip(pool.strains, pool.stresses)])
        rows = np.vstack([np.hstack([current.strains[support], current.stresses[support]]),
                          pool_rows[d <= radius]])
        keep = first_occurrences(rows)
        # the oracle sees every edge tuple on its side of the radius
        n_edge = 4 * support.size
        assert np.count_nonzero(d == radius) >= n_edge
        assert np.count_nonzero((d < radius) & (d > radius - 1e-15)) >= n_edge
        assert np.count_nonzero((d > radius) & (d < radius + 1e-15)) >= n_edge
        # the pool's duplicate rows and its copy of a support tuple collapse
        assert len(keep) < len(rows)
        assert np.array_equal(np.hstack([out.strains, out.stresses]), rows[keep])
        assert out.mu0 == current.mu0
        # the join leaves the tuples next to the radius, and only those, to
        # the measurement on unrotated coordinates
        band = np.count_nonzero(np.abs(d - radius) <= 1e-12)
        assert band >= 3 * n_edge
        assert [call for call in log if call[0] == "query"] == [("query", band)]


def _interleaved(rows, extra, every=7):
    """The rows with the `extra` lines after rows 3, 3 + every, 3 + 2 every, ..."""
    return [line for i, row in enumerate(rows)
            for line in ([row, *extra] if i % every == 3 else [row])]


# (lines before the header, block rows, lines after them, line ending)
# from the formatted rows of a dataset file
STREAM_LAYOUTS = {
    "LF": lambda rows: ([], rows, [], "\n"),
    "CRLF": lambda rows: ([], rows, [], "\r\n"),
    "CR": lambda rows: ([], rows, [], "\r"),
    "blanks and comments before the header": lambda rows: (
        ["", "# a comment", "  \t", "   # indented"], rows, [], "\n"),
    "blank lines in the block": lambda rows: ([], _interleaved(rows, ["", " \t "]), [], "\n"),
    "comments in the block": lambda rows: (
        [], _interleaved(rows, ["# note", "", "  # indented"]), [], "\n"),
    "CRLF with comments in the block": lambda rows: (
        ["# before"], _interleaved(rows, ["# note", ""], every=5), [], "\r\n"),
    "trailing blank lines": lambda rows: ([], rows, ["", "", "   "], "\n"),
    "blank lines around the block, CRLF": lambda rows: ([], ["", *rows], ["", "\t"], "\r\n"),
    # a line ends at \n, \r\n or \r only: a form feed is whitespace
    "form feeds between values": lambda rows: (
        [], [row.replace(" ", "\f", 1) for row in rows], [], "\n"),
}


class TestDatasetFiles:
    @pytest.mark.parametrize("kind, dim", [(PairingKind.FP, 1), (PairingKind.FP, 2),
                                           (PairingKind.CS, 2), (PairingKind.CS, 3),
                                           (PairingKind.EPS_SIGMA, 2)],
                             ids=["FP-1D", "FP-2D", "CS-2D", "CS-3D", "EPS-2D"])
    def test_round_trip_is_exact(self, kind, dim, tmp_path, rng, monkeypatch):
        table = valid_rows(kind, dim, 17, rng)
        ds = DataSet(kind, dim, table[:, :dim * dim], table[:, dim * dim:], mu0=1.0)
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.kind is kind and back.dim == dim
        assert np.array_equal(back.strains, ds.strains)
        assert np.array_equal(back.stresses, ds.stresses)
        # the second load reads the table kept by the first and parses no text
        assert len(cached_tables(path)) == 1
        parses = spy_loadtxt(monkeypatch)
        again = load_dataset(path)
        assert parses == []
        assert again.kind is kind and again.dim == dim and again.mu0 == back.mu0
        for warm, cold in ((again.strains, back.strains), (again.stresses, back.stresses)):
            assert np.array_equal(warm, cold) and warm.dtype == cold.dtype

    def test_comments_and_blanks_allowed(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# dd-dataset v1\nkind=FP dim=1 units=SI\n"
                        "# a comment\n\n1.5 0.25\n")
        assert len(load_dataset(path)) == 1

    def test_missing_magic_names_line_1(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("kind=FP dim=1 units=SI\n1.0 0.0\n")
        with pytest.raises(ValueError, match=r"bad.txt:1"):
            load_dataset(path)

    def test_bad_kind_names_line_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dd-dataset v1\nkind=XY dim=1 units=SI\n1.0 0.0\n")
        with pytest.raises(ValueError, match=r"bad.txt:2"):
            load_dataset(path)

    def test_wrong_column_count_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for newline in ("\n", "\r\n"):
            write_lines(path, ["# dd-dataset v1", "kind=FP dim=1 units=SI",
                               "# comment shifts the data lines", "1.0 0.0", "2.0"], newline)
            assert load_error(path) == f"{path}:5: expected 2 components, got 1"

    def test_inline_comment_is_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for newline in ("\n", "\r\n"):
            write_lines(path, ["# dd-dataset v1", "kind=FP dim=1 units=SI",
                               "1.0 0.0", "1.5 0.25 # note"], newline)
            assert load_error(path) == f"{path}:4: expected 2 components, got 4"

    def test_malformed_number_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for newline in ("\n", "\r\n"):
            write_lines(path, ["# dd-dataset v1", "kind=FP dim=1 units=SI",
                               "1.0 0.0", "", "1.5 0.2.5"], newline)
            assert load_error(path) == f"{path}:5: malformed number"

    def test_empty_body_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        for body in ([], ["", "# no rows", "  "]):
            for newline in ("\n", "\r\n"):
                write_lines(path, ["# dd-dataset v1", "kind=FP dim=1 units=SI", *body],
                            newline)
                assert load_error(path) == f"{path}: dataset contains no tuples"

    def test_asymmetric_cs_tuple_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for newline in ("\n", "\r\n"):
            write_lines(path, ["# dd-dataset v1", "kind=CS dim=2 units=SI",
                               "1.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0", "",
                               "1.0 0.0 0.0 1.0 0.0 3.0 3.0 0.0",
                               "1.0 0.5 0.0 1.0 0.0 0.0 0.0 0.0"], newline)
            assert load_error(path) == f"{path}:6: strain tensor is not symmetric"

    @pytest.mark.parametrize("rows, reason", [
        (["1.0 0.0", "1.0 5.0"], "all strains sit at the reference state"),
        (["1.2 0.0", "", "1.5 0.0"], "dataset carries no stress")],
        ids=["reference strains", "no stress"])
    def test_an_uncalibratable_file_names_no_line(self, tmp_path, rows, reason):
        # mu0 belongs to the whole file, not to one of its tuples
        path = tmp_path / "bad.txt"
        for newline in ("\n", "\r\n"):
            write_lines(path, ["# dd-dataset v1", "kind=FP dim=1 units=SI", *rows], newline)
            assert load_error(path) == f"cannot calibrate mu0: {reason}"

    def test_every_float_token_is_accepted(self, tmp_path):
        # the batched parse rejects these; the line loop reads them like float()
        path = tmp_path / "data.txt"
        path.write_text("# dd-dataset v1\nkind=FP dim=1 units=SI\n"
                        "1_000.5 0.25\n  1.5\t-2.5e-1 \n")
        data = load_dataset(path, mu0=1.0)
        assert np.array_equal(data.strains, [[1000.5], [1.5]])
        assert np.array_equal(data.stresses, [[0.25], [-0.25]])

    def test_momentum_violation_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        rows = ["1.0 0.0 0.0 1.0 0.1 0.0 0.0 0.2",
                "1.0 0.0 0.0 1.0 0.0 2.0 0.0 0.0"]
        for newline in ("\n", "\r\n"):
            write_lines(path, ["# dd-dataset v1", "kind=FP dim=2 units=SI", *rows], newline)
            assert load_error(path) == f"{path}:4: FP pair violates angular momentum balance"

    def test_first_of_several_bad_tuples_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        rows = ["1.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0",
                "# comment", "",
                "1.0 0.0 0.0 1.0 0.0 2.0 0.0 0.0",
                "1.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0",
                "1.0 0.0 0.0 1.0 nan 0.0 0.0 0.0"]
        path.write_text("# dd-dataset v1\nkind=FP dim=2 units=SI\n"
                        + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"bad.txt:6: FP pair violates"):
            load_dataset(path)

    def test_comments_and_blanks_leave_the_tuples_and_lines_alone(self, tmp_path, rng):
        # a clean file takes the batched parse, one with comments and
        # blank lines the filtered one; a bad tuple names its own line
        rows = [f"{lam!r} {p!r}" for lam, p in rng.uniform(1.0, 2.0, (40, 2)).tolist()]
        head = "# dd-dataset v1\nkind=FP dim=1 units=SI\n"
        noisy = [line for i, row in enumerate(rows)
                 for line in ([row, "", "# note"] if i % 7 == 3 else [row])]
        clean_path, noisy_path = tmp_path / "clean.txt", tmp_path / "noisy.txt"
        clean_path.write_text(head + "\n".join(rows) + "\n")
        noisy_path.write_text(head + "# comment\n\n" + "\n".join(noisy) + "\n")
        clean, back = load_dataset(clean_path), load_dataset(noisy_path)
        assert np.array_equal(clean.strains, back.strains)
        assert np.array_equal(clean.stresses, back.stresses)
        assert clean.mu0 == back.mu0
        bad = rows[25]
        for path in (clean_path, noisy_path):
            lines = path.read_text().splitlines()
            line = lines.index(bad) + 1
            lines[line - 1] = "nan 1.0"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=rf"{path.name}:{line}: non-finite"):
                load_dataset(path)
        assert lines.index("nan 1.0") != 3 + 25

    def test_mu0_override(self, tmp_path, line_set):
        path = tmp_path / "data.txt"
        save_dataset(line_set, path)
        assert load_dataset(path, mu0=42.0).mu0 == 42.0

    @pytest.mark.parametrize("layout", STREAM_LAYOUTS, ids=list(STREAM_LAYOUTS))
    def test_streamed_rows_equal_the_whole_file_parse(self, layout, tmp_path, rng):
        # repr writes every value back to its bits; the special row holds
        # -0.0, the smallest subnormal and the largest double
        table = np.vstack([rng.standard_normal((30, 8)) * 10.0 ** rng.integers(-8, 8, (30, 1)),
                           [-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
                            0.1, 1.0 / 3.0, 1e22, 123456789.12345678]])
        before, rows, after, newline = STREAM_LAYOUTS[layout](textio.format_rows(table))
        path = tmp_path / "data.txt"
        write_lines(path, ["# dd-dataset v1", *before, "kind=FP dim=2 units=SI", *rows,
                           *after], newline)
        src = textio.read(path, "# dd-dataset v1")
        assert src.header_line == 2 + len(before)
        streamed = src.rows(8)
        # a comment inside the block sends the parse to the file's lines
        assert ("lines" in vars(src)) == any(line.lstrip().startswith("#") for line in rows)
        whole = src.rows(8, numbered=src.numbered())
        assert streamed.dtype == whole.dtype == np.float64
        assert streamed.tobytes() == whole.tobytes() == table.tobytes()

    def test_loaded_strains_and_stresses_are_views_of_one_table(self, tmp_path, rng):
        path = tmp_path / "data.txt"
        table = fp_rows_2d(50, rng)
        save_dataset(DataSet(PairingKind.FP, 2, table[:, :4], table[:, 4:]), path)
        # the first load parses the text, the second reads the kept table
        for data in (load_dataset(path), load_dataset(path)):
            base = data.strains.base
            assert base is not None and data.stresses.base is base
            assert base.nbytes == data.strains.nbytes + data.stresses.nbytes
            assert np.shares_memory(data.strains, base)
            assert np.shares_memory(data.stresses, base)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_load_peak_memory_is_a_few_times_the_arrays(self, warm, tmp_path, rng):
        # the parse holds neither the file's text nor a list of its lines,
        # the file is hashed in blocks, a kept table is read as one array,
        # the strains and stresses are column views of the table, and the
        # tuple checks and mu0's sums run on blocks of rows: the peak stays
        # below 2x the arrays (about 3x with contiguous copies of the two
        # blocks and whole-array checks, 7x when the whole file is read as
        # text and split into lines)
        path = tmp_path / "data.txt"
        table = fp_rows_2d(20_000, rng)
        save_dataset(DataSet(PairingKind.FP, 2, table[:, :4], table[:, 4:]), path)
        load_dataset(path)
        if not warm:
            shutil.rmtree(tmp_path / "__ddcache__")
        tracemalloc.start()
        try:
            data = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(np.hstack([data.strains, data.stresses]), table)
        assert peak < 2 * (data.strains.nbytes + data.stresses.nbytes)
        assert len(cached_tables(path)) == 1


HEAD_FP_1D = "# dd-dataset v1\nkind=FP dim=1 units=SI\n"


def _npy_header(shape) -> bytes:
    """The .npy header of a C-ordered float64 array of this shape."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return out.getvalue()


class TestDatasetCache:
    """The table `load_dataset` keeps next to a dataset file."""

    def test_new_bytes_of_the_same_length_and_mtime_are_read_anew(self, tmp_path):
        path, other = tmp_path / "data.txt", tmp_path / "data.txt.old"
        other.write_text(HEAD_FP_1D + "1.5 0.5\n")
        other.chmod(0o640)
        path.write_text(HEAD_FP_1D + "1.5 0.25\n2.0 0.5\n")
        load_dataset(other)
        assert load_dataset(path).stresses.tolist() == [[0.25], [0.5]]
        kept = cached_tables(path)
        before = path.stat()
        path.write_text(HEAD_FP_1D + "1.5 0.75\n2.0 0.5\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        assert load_dataset(path).stresses.tolist() == [[0.75], [0.5]]
        # the table of the old bytes is replaced; another file's stays.
        # Each has its file's permission bits.
        now = cached_tables(path)
        assert len(now) == len(kept) == 2 and now != kept
        assert {name for name in now if name.startswith("data.txt.old.")} == \
            {name for name in kept if name.startswith("data.txt.old.")}
        for name in now:
            source = other if name.startswith("data.txt.old.") else path
            mode = (tmp_path / "__ddcache__" / name).stat().st_mode
            assert stat.S_IMODE(mode) == stat.S_IMODE(source.stat().st_mode)

    CORRUPT = {
        "truncated": lambda entry, table: entry.write_bytes(entry.read_bytes()[:-20]),
        "empty": lambda entry, table: entry.write_bytes(b""),
        "not a table": lambda entry, table: entry.write_bytes(b"# dd-dataset v1\n"),
        "wrong width": lambda entry, table: np.save(entry, table[:, :-1]),
        "one dimension": lambda entry, table: np.save(entry, table.ravel()),
        "single precision": lambda entry, table: np.save(entry, table.astype(np.float32)),
        "no rows": lambda entry, table: np.save(entry, table[:0]),
        "a non-finite value": lambda entry, table: np.save(entry, np.where(table == table[3, 5],
                                                                          np.nan, table)),
        "object array": lambda entry, table: np.save(entry, table.astype(object)),
        "a header claiming 10^12 rows": lambda entry, table: entry.write_bytes(
            _npy_header((10**12, 8)) + table.tobytes()),
    }

    @pytest.mark.parametrize("corrupt", CORRUPT, ids=list(CORRUPT))
    def test_a_bad_copy_is_ignored_and_replaced(self, corrupt, tmp_path, rng):
        path = tmp_path / "data.txt"
        table = fp_rows_2d(40, rng)
        save_dataset(DataSet(PairingKind.FP, 2, table[:, :4], table[:, 4:]), path)
        first = load_dataset(path)
        [name] = cached_tables(path)
        entry = tmp_path / "__ddcache__" / name
        self.CORRUPT[corrupt](entry, table)
        data = load_dataset(path)
        assert np.array_equal(np.hstack([data.strains, data.stresses]), table)
        assert data.mu0 == first.mu0
        assert cached_tables(path) == [name]
        assert np.array_equal(np.load(entry), table)

    def test_a_file_in_place_of_the_cache_directory_blocks_it(self, tmp_path):
        # unlike a read-only directory, this holds for every user, root too
        path = tmp_path / "data.txt"
        path.write_text(HEAD_FP_1D + "1.5 0.25\n2.0 0.5\n")
        (tmp_path / "__ddcache__").write_text("not a directory\n")
        for _ in range(2):
            assert load_dataset(path).stresses.tolist() == [[0.25], [0.5]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["__ddcache__", "data.txt"]
        assert (tmp_path / "__ddcache__").read_text() == "not a directory\n"

    def test_a_file_that_fails_validation_keeps_no_copy(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(HEAD_FP_1D + "1.5 0.25\n\n2.0 nan\n")
        for _ in range(2):
            assert load_error(path) == f"{path}:5: non-finite component"
            assert cached_tables(path) == []

    def test_a_file_changed_while_it_is_parsed_keeps_no_copy(self, tmp_path, monkeypatch):
        path = tmp_path / "data.txt"
        path.write_text(HEAD_FP_1D + "1.5 0.25\n")
        rows = textio.TextFile.rows

        def rewrite_after(src, *args):
            table = rows(src, *args)
            path.write_text(HEAD_FP_1D + "1.5 0.25\n2.0 0.5\n")
            return table

        monkeypatch.setattr(textio.TextFile, "rows", rewrite_after)
        assert load_dataset(path).stresses.tolist() == [[0.25]]
        assert cached_tables(path) == []
        monkeypatch.undo()
        assert load_dataset(path).stresses.tolist() == [[0.25], [0.5]]
        assert len(cached_tables(path)) == 1
