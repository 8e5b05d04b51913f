"""Metric, assignment, calibration, refinement, and dataset file IO."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddfem.phase_space import (DataSet, DataTuple, PairingKind, auto_mu0,
                               global_penalty, load_dataset, local_penalty,
                               median_nn_spacing, nearest_many, penalty_many,
                               refine_around, save_dataset)


def flat_set(kind, dim, strains, stresses, mu0=1.0):
    """Raw dataset from flattened rows, skipping tuple validation."""
    return DataSet(kind, dim, np.asarray(strains, dtype=float),
                   np.asarray(stresses, dtype=float), mu0=mu0, validate=False)


def direct_metric(strain, stress, ds):
    """Metric from one state to every tuple, by direct differences."""
    de = ds.strains - np.asarray(strain, dtype=float).reshape(-1)
    dsg = ds.stresses - np.asarray(stress, dtype=float).reshape(-1)
    return (0.5 * ds.mu0 * np.sum(de * de, axis=1)
            + 0.5 / ds.mu0 * np.sum(dsg * dsg, axis=1))


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
    return flat_set(PairingKind.FP, 1, strains, np.zeros_like(strains), mu0=2.0)


class TestLocalPenalty:
    def test_coincident_state(self):
        tup = DataTuple(np.array([[1.1]]), np.array([[3.0]]), 0)
        assert local_penalty([[1.1]], [[3.0]], tup, mu0=5.0) == 0.0

    def test_pure_stress_offset(self):
        # |dstress|^2 = 2 at mu0 = 1 gives 0.5/1 * 2 = 1
        tup = DataTuple(np.zeros((2, 2)), np.zeros((2, 2)), 0)
        stress = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert local_penalty(np.zeros((2, 2)), stress, tup, mu0=1.0) == 1.0

    def test_mu0_moves_the_two_terms_oppositely(self):
        tup = DataTuple(np.zeros(1), np.zeros(1), 0)
        strain_only = local_penalty([2.0], [0.0], tup, mu0=1.0)
        stress_only = local_penalty([0.0], [2.0], tup, mu0=1.0)
        assert local_penalty([2.0], [0.0], tup, mu0=2.0) == 2.0 * strain_only
        assert local_penalty([0.0], [2.0], tup, mu0=2.0) == 0.5 * stress_only


class TestNearest:
    def test_singleton(self):
        ds = flat_set(PairingKind.FP, 1, [[1.7]], [[0.3]])
        assert nearest_one([1.0], [0.0], ds) == 0
        assert nearest_many(np.ones((3, 1)), np.zeros((3, 1)), ds).tolist() == [0, 0, 0]

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
        ds = flat_set(PairingKind.FP, 1, strains, np.zeros((8, 1)))
        # ids 3 and 7 sit symmetrically about the query
        assert nearest_one([2.0], [0.0], ds) == 3

    def test_tie_with_unsorted_ids(self):
        strains = np.array([[10.0], [1.0], [5.0], [3.0]])
        ds = flat_set(PairingKind.FP, 1, strains, np.zeros((4, 1)))
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
        ds = flat_set(PairingKind.FP, 1, strains[:, :1], strains[:, 1:], mu0=1.0)
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
            d2 = [local_penalty(qe[i], qs[i],
                                DataTuple(ds.strains[j], ds.stresses[j], j), 3.1)
                  for j in range(40)]
            assert got[i] == int(np.argmin(d2))

    def test_degenerate_axis(self, rng):
        strains = np.column_stack([np.full(30, 2.0), rng.standard_normal(30),
                                   rng.standard_normal(30), np.full(30, 0.5)])
        ds = flat_set(PairingKind.CS, 2, strains, rng.standard_normal((30, 4)))
        qe = rng.standard_normal((40, 4))
        qs = rng.standard_normal((40, 4))
        assert np.array_equal(nearest_many(qe, qs, ds), oracle_nearest(qe, qs, ds))

    def test_worker_count_does_not_change_results(self, rng):
        ds = flat_set(PairingKind.FP, 2, rng.standard_normal((2000, 4)),
                      rng.standard_normal((2000, 4)), mu0=0.7)
        qe = np.vstack([rng.standard_normal((3000, 4)), ds.strains[:50]])
        qs = np.vstack([rng.standard_normal((3000, 4)), ds.stresses[:50]])
        a = nearest_many(qe, qs, ds, workers=1)
        b = nearest_many(qe, qs, ds, workers=4)
        assert np.array_equal(a, b)
        assert np.array_equal(a, oracle_nearest(qe, qs, ds))

    def test_scaling_stress_and_mu0_together_is_neutral(self, rng):
        """Multiplying stresses and mu0 by s rescales all penalties by s."""
        strains = rng.standard_normal((60, 1))
        stresses = rng.standard_normal((60, 1))
        qe = rng.standard_normal((20, 1))
        qs = rng.standard_normal((20, 1))
        s = 1.0e6
        a = nearest_many(qe, qs, flat_set(PairingKind.FP, 1, strains, stresses, mu0=2.0))
        b = nearest_many(qe, s * qs,
                         flat_set(PairingKind.FP, 1, strains, s * stresses, mu0=2.0 * s))
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


class TestGlobalPenalty:
    def test_exact_assignment_is_zero(self, line_set):
        ids = np.array([2, 5, 9])
        total = global_penalty(line_set.strains[ids], line_set.stresses[ids],
                               np.ones(3), ids, line_set)
        assert total == 0.0

    def test_single_weighted_state(self):
        ds = flat_set(PairingKind.FP, 1, [[0.0]], [[0.0]], mu0=1.0)
        # local penalty 0.5, weight 2
        total = global_penalty(np.array([[1.0]]), np.array([[0.0]]),
                               np.array([2.0]), np.array([0]), ds)
        assert total == 1.0

    def test_matches_loop_oracle(self, rng):
        ds = flat_set(PairingKind.CS, 2, rng.standard_normal((30, 4)),
                      rng.standard_normal((30, 4)), mu0=0.9)
        qe = rng.standard_normal((12, 4))
        qs = rng.standard_normal((12, 4))
        w = rng.random(12)
        ids = rng.integers(0, 30, size=12)
        expected = sum(
            w[i] * local_penalty(qe[i], qs[i],
                                 DataTuple(ds.strains[ids[i]], ds.stresses[ids[i]], 0),
                                 0.9)
            for i in range(12))
        assert_allclose(global_penalty(qe, qs, w, ids, ds), expected, rtol=1e-13)

    def test_unassigned_state_raises(self, line_set):
        with pytest.raises(ValueError, match="assigned"):
            global_penalty(line_set.strains[:2], line_set.stresses[:2],
                           np.ones(2), np.array([0, -1]), line_set)


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

    def test_singleton_rod_tuple(self):
        ds = flat_set(PairingKind.FP, 1, [[2.0]], [[3.0]])
        assert auto_mu0(ds) == 3.0

    def test_all_strains_at_reference_raise(self):
        ds = flat_set(PairingKind.FP, 1, [[1.0], [1.0]], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="reference"):
            auto_mu0(ds)

    def test_zero_stress_raises(self):
        ds = flat_set(PairingKind.FP, 1, [[1.5], [2.0]], [[0.0], [0.0]])
        with pytest.raises(ValueError, match="stress"):
            auto_mu0(ds)


class TestDataSetValidation:
    def test_asymmetric_cs_strain_rejected(self):
        strain = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DataSet.from_pairs(PairingKind.CS, 2,
                               [(strain, np.zeros((2, 2)))], mu0=1.0)

    def test_fp_angular_momentum_violation_rejected(self):
        f = np.eye(2)
        p = np.array([[0.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="momentum"):
            DataSet.from_pairs(PairingKind.FP, 2, [(f, p)], mu0=1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DataSet.from_pairs(PairingKind.FP, 1, [(np.array([np.nan]),
                                                    np.array([0.0]))], mu0=1.0)

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
        source = flat_set(PairingKind.FP, 1, rng.uniform(1.0, 2.0, (50, 1)),
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

    def test_generator_callback(self, line_set):
        def gen(centers, radius):
            for e in centers.strains[:, 0]:
                yield (np.array([e + 0.01]), np.array([0.0]))

        out = refine_around(gen, np.array([2, 4]), line_set, radius=0.05)
        assert len(out) == 4
        assert out.mu0 == line_set.mu0

    def test_duplicates_collapse(self, line_set):
        out = refine_around(line_set, np.arange(len(line_set)), line_set,
                            radius=10.0)
        assert len(out) == len(line_set)

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
        ds = flat_set(PairingKind.FP, 1, [[1.0], [1.5], [1.5], [2.0], [3.0]],
                      np.zeros((5, 1)))
        # nearest-other distances 0.5, 0, 0, 0.5, 1 (in strain units)
        assert_allclose(median_nn_spacing(ds), np.sqrt(0.5) * 0.5, rtol=1e-12)

    def test_pool_selection_matches_direct_oracle(self, rng):
        current = flat_set(PairingKind.CS, 2, rng.standard_normal((40, 4)),
                           rng.standard_normal((40, 4)), mu0=0.8)
        pool = flat_set(PairingKind.CS, 2, rng.standard_normal((500, 4)),
                        rng.standard_normal((500, 4)), mu0=3.0)
        support = np.array([3, 9, 17, 30])
        radius = 1.2
        out = refine_around(pool, support, current, radius=radius)
        # distances in the current level's scaling, not the pool's
        centers = flat_set(PairingKind.CS, 2, current.strains[support],
                           current.stresses[support], mu0=current.mu0)
        d = np.sqrt([direct_metric(e, s, centers).min()
                     for e, s in zip(pool.strains, pool.stresses)])
        expected = np.vstack([current.strains[support], pool.strains[d <= radius]])
        assert 0 < np.count_nonzero(d <= radius) < len(pool)
        assert np.array_equal(out.strains, expected)


class TestDatasetFiles:
    def test_round_trip_is_exact(self, tmp_path, rng):
        raw_e = rng.standard_normal((17, 2, 2))
        raw_s = rng.standard_normal((17, 2, 2))
        sym_e = (0.5 * (raw_e + raw_e.transpose(0, 2, 1))).reshape(17, 4)
        sym_s = (0.5 * (raw_s + raw_s.transpose(0, 2, 1))).reshape(17, 4)
        ds = flat_set(PairingKind.CS, 2, sym_e, sym_s)
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.kind is PairingKind.CS and back.dim == 2
        assert np.array_equal(back.strains, ds.strains)
        assert np.array_equal(back.stresses, ds.stresses)

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
        path.write_text("# dd-dataset v1\nkind=FP dim=1 units=SI\n"
                        "# comment shifts the data lines\n1.0 0.0\n2.0\n")
        with pytest.raises(ValueError, match=r"bad.txt:5"):
            load_dataset(path)

    def test_momentum_violation_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        rows = ["1.0 0.0 0.0 1.0 0.1 0.0 0.0 0.2",
                "1.0 0.0 0.0 1.0 0.0 2.0 0.0 0.0"]
        path.write_text("# dd-dataset v1\nkind=FP dim=2 units=SI\n"
                        + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"bad.txt:4"):
            load_dataset(path)

    def test_mu0_override(self, tmp_path, line_set):
        path = tmp_path / "data.txt"
        save_dataset(line_set, path)
        assert load_dataset(path, mu0=42.0).mu0 == 42.0
