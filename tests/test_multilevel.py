"""Tests for the solve / refine / re-solve driver."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import count_factorizations, end_load_bcs, same_report
from ddfem import multilevel
from ddfem.data_gen import Family, GeneratorSpec, generate, piola_stress_1d
from ddfem.fem import BoundaryConditions
from ddfem.multilevel import LevelRecord, MultilevelOptions, run_multilevel, write_level_table
from ddfem.phase_space import DataSet, PairingKind, refine_around
from ddfem.solver_cs import CsConfig
from ddfem.solver_fp import FpConfig, solve_fp

C1_RUBBER = 1.0e6 / 6.0


def rubber_set(n, mu0=None):
    spec = GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=n,
                         stretch_range=(1.0, 3.2))
    return generate(spec, mu0=mu0)


def refining(max_levels, **kwargs):
    """Options that stop at `max_levels` only: no growth or penalty stop."""
    return MultilevelOptions(max_levels=max_levels, stop_delta=0.0, penalty_floor=0.0,
                             **kwargs)


@pytest.fixture
def graded_bcs(rod_mesh):
    """End load plus body force, so the stress varies along the rod."""
    return BoundaryConditions(
        dirichlet=[(0, 0, 0.0)],
        point_loads=[(rod_mesh.n_nodes - 1, np.array([40.0]))],
        body_force=np.array([2.0e6]))


class TestRunMultilevel:
    def test_single_level_is_one_plain_solve(self, rod_mesh):
        data = rubber_set(100)
        bcs = end_load_bcs(rod_mesh, 40.0)
        records, report = run_multilevel(rod_mesh, bcs, data, FpConfig(),
                                         MultilevelOptions(max_levels=1))
        direct = solve_fp(rod_mesh, bcs, data)
        assert len(records) == 1
        assert records[0].level == 1
        assert records[0].n_data == 100
        assert records[0].penalty == direct.global_penalty
        assert np.array_equal(report.assigned, direct.assigned)

    def test_consistent_data_stops_at_level_one(self, rod_mesh):
        # the exact state is in the set: the penalty floor ends the loop
        p_exact = 0.3e6
        data = DataSet(PairingKind.FP, 1,
                       np.array([[1.0], [1.25], [1.6]]),
                       np.array([[0.0], [p_exact], [0.9e6]]), mu0=1.0e6)
        bcs = end_load_bcs(rod_mesh, p_exact * rod_mesh.area)
        records, report = run_multilevel(rod_mesh, bcs, data, FpConfig(),
                                         MultilevelOptions(max_levels=5))
        assert len(records) == 1
        assert report.converged
        assert records[0].penalty <= 1e-16

    def test_support_is_bounded_by_the_quadrature_points(self, rod_mesh,
                                                         graded_bcs):
        source = rubber_set(2000)
        coarse = rubber_set(20, mu0=source.mu0)
        records, report = run_multilevel(rod_mesh, graded_bcs, source,
                                         FpConfig(), refining(3), initial=coarse)
        n_qp = rod_mesh.quadrature().weights.size
        assert report.converged
        assert all(r.n_support <= n_qp for r in records)
        assert all(r.n_support >= 1 for r in records)

    def test_refinement_reduces_the_final_penalty(self, rod_mesh,
                                                  graded_bcs):
        source = rubber_set(2000)
        coarse = rubber_set(20, mu0=source.mu0)
        records, _ = run_multilevel(rod_mesh, graded_bcs, source, FpConfig(),
                                    refining(3), initial=coarse)
        assert len(records) >= 2
        assert records[-1].penalty <= records[0].penalty

    def test_next_level_dataset_keeps_the_used_tuples(self, rod_mesh,
                                                      graded_bcs):
        # replay level 1 by hand and check the level-2 bookkeeping
        source = rubber_set(2000)
        coarse = rubber_set(20, mu0=source.mu0)
        level1 = solve_fp(rod_mesh, graded_bcs, coarse)
        support = np.unique(level1.assigned)
        level2_data = refine_around(source, support, coarse)
        used_rows = {row.tobytes() for row in coarse.strains[support]}
        present = {row.tobytes() for row in level2_data.strains}
        assert used_rows <= present
        records, _ = run_multilevel(rod_mesh, graded_bcs, source, FpConfig(),
                                    refining(2), initial=coarse)
        assert records[0].n_support == support.size
        assert records[1].n_data == len(level2_data)

    def test_keep_all_retains_the_whole_previous_level(self, rod_mesh,
                                                       graded_bcs):
        source = rubber_set(800)
        coarse = rubber_set(20, mu0=source.mu0)
        records, _ = run_multilevel(rod_mesh, graded_bcs, source, FpConfig(),
                                    refining(2, keep_all=True), initial=coarse)
        assert len(records) == 2
        assert records[1].n_data >= records[0].n_data

    def test_pool_under_another_mu0_refines_as_if_converted(self, rod_mesh,
                                                            graded_bcs, monkeypatch):
        source = rubber_set(2000)
        coarse = rubber_set(20)
        assert coarse.mu0 != source.mu0
        kwargs = dict(options=refining(3), initial=coarse)
        conversions = []
        with_mu0 = DataSet.with_mu0
        monkeypatch.setattr(DataSet, "with_mu0",
                            lambda ds, mu0: conversions.append(ds) or with_mu0(ds, mu0))
        rec_a, rep_a = run_multilevel(rod_mesh, graded_bcs, source, FpConfig(),
                                      **kwargs)
        # one conversion per run, so the pool's tree is built once
        assert conversions == [source]
        by_hand = source.with_mu0(coarse.mu0)
        rec_b, rep_b = run_multilevel(rod_mesh, graded_bcs, by_hand, FpConfig(),
                                      **kwargs)
        assert len(rec_a) == len(rec_b) == 3
        for a, b in zip(rec_a, rec_b):
            assert (a.level, a.n_data, a.n_support, a.solver_iterations) == (
                b.level, b.n_data, b.n_support, b.solver_iterations)
            assert a.penalty == b.penalty
        assert rec_a[1].n_data > rec_a[0].n_support
        assert np.array_equal(rep_a.u, rep_b.u)

    def test_a_solver_mu0_is_the_metric_of_every_level(self, rod_mesh, graded_bcs,
                                                         monkeypatch):
        # FpConfig(mu0=X) measures the pool, the spacing and the refinement
        # in X, as it does with both datasets already stored at X
        source = rubber_set(2000)
        coarse = rubber_set(20)
        x = 5.0 * coarse.mu0
        conversions = []
        with_mu0 = DataSet.with_mu0
        monkeypatch.setattr(DataSet, "with_mu0",
                            lambda ds, mu0: conversions.append(ds) or with_mu0(ds, mu0))
        rec_a, rep_a = run_multilevel(rod_mesh, graded_bcs, source, FpConfig(mu0=x),
                                      refining(4), initial=coarse)
        # the level-1 dataset and the pool once each; no level converts again
        assert conversions == [coarse, source]
        rec_b, rep_b = run_multilevel(rod_mesh, graded_bcs, source.with_mu0(x), FpConfig(),
                                      refining(4), initial=coarse.with_mu0(x))
        assert len(rec_a) >= 2
        assert rec_a[1].n_data > rec_a[0].n_support
        assert ([replace(r, wall_time=0.0) for r in rec_a]
                == [replace(r, wall_time=0.0) for r in rec_b])
        assert rep_a.mu0 == rep_b.mu0 == x
        assert np.array_equal(rep_a.u, rep_b.u)

    def test_levels_share_one_factorization(self, rod_mesh, graded_bcs, monkeypatch):
        built = count_factorizations(monkeypatch)
        source = rubber_set(2000)
        coarse = rubber_set(20, mu0=source.mu0)
        kwargs = dict(options=refining(4), initial=coarse)
        records, report = run_multilevel(rod_mesh, graded_bcs, source, FpConfig(), **kwargs)
        assert len(records) >= 3
        assert len(built) == 1
        # each level on a mesh of its own factors again and gives the same bits
        monkeypatch.setattr(multilevel, "solve_fp",
                            lambda mesh, *args, **kw: solve_fp(replace(mesh), *args, **kw))
        own, own_report = run_multilevel(rod_mesh, graded_bcs, source, FpConfig(), **kwargs)
        assert len(built) == 1 + len(records)
        assert [(r.n_data, r.n_support, r.penalty, r.solver_iterations) for r in records] == [
            (r.n_data, r.n_support, r.penalty, r.solver_iterations) for r in own]
        assert same_report(report, own_report)

    def test_runs_are_deterministic(self, rod_mesh, graded_bcs):
        source = rubber_set(1000)
        coarse = rubber_set(25, mu0=source.mu0)
        kwargs = dict(options=refining(3), initial=coarse)
        rec_a, rep_a = run_multilevel(rod_mesh, graded_bcs, source,
                                      FpConfig(), **kwargs)
        rec_b, rep_b = run_multilevel(rod_mesh, graded_bcs, source,
                                      FpConfig(), **kwargs)
        assert len(rec_a) == len(rec_b)
        for a, b in zip(rec_a, rec_b):
            assert (a.level, a.n_data, a.n_support) == (b.level, b.n_data,
                                                        b.n_support)
            assert a.penalty == b.penalty
        assert np.array_equal(rep_a.u, rep_b.u)

    def test_nonconverged_level_aborts_with_partial_records(self, rod_mesh):
        data = rubber_set(500)
        bcs = end_load_bcs(rod_mesh, 40.0)
        config = FpConfig(max_data_iterations=1)
        records, report = run_multilevel(rod_mesh, bcs, data, config,
                                         MultilevelOptions(max_levels=4))
        assert len(records) == 1
        assert not report.converged

    def test_cs_configuration_dispatches_to_the_nonlinear_solver(
            self, rod_mesh):
        spec = GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=200,
                             stretch_range=(1.0, 3.2),
                             pairing=PairingKind.CS)
        data = generate(spec)
        bcs = end_load_bcs(rod_mesh, 40.0)
        records, report = run_multilevel(rod_mesh, bcs, data, CsConfig(),
                                         MultilevelOptions(max_levels=1))
        assert report.formulation == "CS"
        assert len(records) == 1

    def test_rejects_foreign_config_objects(self, rod_mesh):
        with pytest.raises(TypeError, match="FpConfig or CsConfig"):
            run_multilevel(rod_mesh, end_load_bcs(rod_mesh, 1.0),
                           rubber_set(10), config={"solver": "fp"})

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError, match="^max_levels must be >= 1, got 0$"):
            MultilevelOptions(max_levels=0)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, np.inf, np.nan])
    def test_rejects_a_radius_that_is_not_positive_and_finite(self, radius):
        with pytest.raises(ValueError,
                           match=f"^radius must be positive and finite, got {radius}$"):
            MultilevelOptions(radius=radius)

    @pytest.mark.parametrize("key", ["stop_delta", "penalty_floor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_stopping_value_that_is_not_finite(self, key, value):
        # a NaN stop_delta would never stop the loop, a NaN floor never ends it early
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
            MultilevelOptions(**{key: value})


class TestLevelTable:
    def test_table_layout_and_values(self, tmp_path):
        records = [
            LevelRecord(level=1, n_data=20, n_support=7,
                        penalty=1.25e-3, solver_iterations=6,
                        wall_time=0.51),
            LevelRecord(level=2, n_data=88, n_support=9,
                        penalty=3.0e-5, solver_iterations=4,
                        wall_time=0.62),
        ]
        path = tmp_path / "levels.tsv"
        write_level_table(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# dd-levels v1"
        assert lines[1].split("\t") == ["level", "n_data", "n_support",
                                        "penalty", "iterations"]
        assert len(lines) == 4
        first = lines[2].split("\t")
        assert first == ["1", "20", "7", repr(1.25e-3), "6"]
        # wall times must not leak into the file
        assert "0.51" not in path.read_text()

    def test_written_penalties_round_trip_exactly(self, tmp_path, rod_mesh):
        data = rubber_set(60)
        records, _ = run_multilevel(rod_mesh, end_load_bcs(rod_mesh, 40.0),
                                    data, FpConfig(), MultilevelOptions(max_levels=1))
        path = tmp_path / "levels.tsv"
        write_level_table(records, path)
        value = path.read_text().splitlines()[2].split("\t")[3]
        assert float(value) == records[0].penalty
