"""The load-step driver: how passes and load steps chain, and the report it builds."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import scripted_search
from ddfem.assignment import assignment_loop
from ddfem.fem import line_mesh
from ddfem.phase_space import DataSet, PairingKind

# Every pass recovers the state (F, P) = (1, 0), so the penalty of tuple k
# grows with its strain offset: tuple 0 is the best, then 1, 2 and 3.
DATA = DataSet(PairingKind.FP, 1, np.array([[1.0], [1.1], [1.2], [1.3]]),
               np.zeros((4, 1)), mu0=1.0)
MESH = line_mesh(1.0, 2)
POINTS = MESH.quadrature().weights.shape


class ScriptedPass:
    """A solve_pass that records (tuple id, scale, start) and returns fresh
    (u, lam) fields per pass."""

    def __init__(self):
        self.calls = []
        self.fields = []

    def __call__(self, strain_star, stress_star, scale, start):
        # the loop hands over the assigned tuples, gathered per (element, qp)
        assert strain_star.shape == stress_star.shape == (*POINTS, 1, 1)
        tuple_id = int(np.flatnonzero(DATA.strains[:, 0] == strain_star.flat[0])[0])
        assert np.all(strain_star == DATA.strains[tuple_id, 0])
        assert np.all(stress_star == DATA.stresses[tuple_id, 0])
        self.calls.append((tuple_id, scale, start))
        fields = (np.full(MESH.n_dofs, float(len(self.fields))), np.zeros(MESH.n_dofs))
        self.fields.append(fields)
        states = np.ones((*POINTS, 1, 1))
        return *fields, states, 0.0 * states, 0.5 * len(self.fields)


def fields_of(start):
    """The (u, lam) a warm start carries, by identity."""
    return None if start is None else tuple(map(id, start))


def run(tuple_ids, load_steps, max_data_iterations=100):
    solve_pass = ScriptedPass()
    config = SimpleNamespace(max_data_iterations=max_data_iterations, penalty_tol=1e-12,
                             threads=1)
    report = assignment_loop(solve_pass, scripted_search(*tuple_ids), MESH, DATA, config,
                             load_steps)
    return report, solve_pass


def test_steps_chain_their_scales_and_warm_starts():
    # seed 2; step 1 visits 2, 1, 3 and cycles back to 1, so it rolls back
    # to its best pass (tuple 1); steps 2 and 3 stop on a fixed point at 1
    report, solve_pass = run((2, 1, 3, 1, 1), load_steps=3)
    p = [fields_of(fields) for fields in solve_pass.fields]
    assert [(ids, scale) for ids, scale, _ in solve_pass.calls] == [
        (2, 1 / 3), (1, 1 / 3), (3, 1 / 3), (1, 2 / 3), (1, 1.0)]
    # within a step each pass starts from the previous pass; step 2 starts
    # from the rolled-back best pass, step 3 from the pass step 2 returned
    starts = [fields_of(start) for _, _, start in solve_pass.calls]
    assert starts[0] is None
    assert starts[1] == p[0] and starts[2] == p[1]
    assert starts[3] == p[1]
    assert starts[4] == p[3]
    assert report.termination == "fixed-point"
    assert report.data_iterations == 5
    # one rollback row after step 1's three passes, then one row per pass
    assert len(report.penalty_history) == len(report.residual_history) == 6
    assert report.residual_history == [0.5, 1.0, 1.5, 1.0, 2.0, 2.5]
    assert fields_of((report.u, report.lam)) == p[4]


def test_a_capped_step_runs_no_later_step():
    # seed 2; step 1 visits 2 and 3 and reaches the cap of two passes
    report, solve_pass = run((2, 3, 0), load_steps=3, max_data_iterations=2)
    assert [scale for _, scale, _ in solve_pass.calls] == [1 / 3, 1 / 3]
    assert not report.converged
    assert report.termination == "max-iterations"
    assert report.data_iterations == 2
    # the capped step returns its best pass, tuple 2, with its row repeated
    assert fields_of((report.u, report.lam)) == fields_of(solve_pass.fields[0])
    assert np.all(report.assigned == 2)
    assert report.penalty_history[-1] == report.penalty_history[0]
    assert report.residual_history[-1] == report.residual_history[0]


def test_every_search_gets_the_dataset_and_the_thread_cap():
    seen = []
    scripted = scripted_search(2, 1, 1)

    def search(strains, stresses, dataset, workers=1):
        seen.append((dataset, workers))
        return scripted(strains, stresses, dataset, workers)

    config = SimpleNamespace(max_data_iterations=100, penalty_tol=1e-12, threads=3)
    report = assignment_loop(ScriptedPass(), search, MESH, DATA, config)
    # the seed query, then one search after each of the two passes
    assert report.data_iterations == 2 and len(seen) == 3
    assert all(dataset is DATA and workers == 3 for dataset, workers in seen)


@pytest.mark.parametrize("load_steps, passes", [(1, 2), (2, 3)])
def test_report_carries_the_returned_pass_and_every_history_row(load_steps, passes):
    report, solve_pass = run((2, 1, 1), load_steps)
    u, lam = solve_pass.fields[-1]
    assert report.formulation == "FP"
    assert report.u is u and report.lam is lam
    assert report.mesh is MESH and report.mu0 == DATA.mu0
    assert report.strains.shape == report.stresses.shape == (*POINTS, 1, 1)
    assert report.assigned.shape == report.local_penalties.shape == POINTS
    assert np.all(report.assigned == 1)
    # the global penalty is the weighted sum of the local ones, and the
    # last history row belongs to the returned pass
    weights = MESH.quadrature().weights
    assert report.global_penalty == np.dot(weights.ravel(), report.local_penalties.ravel())
    assert report.penalty_history[-1] == report.global_penalty
    assert report.residual_history[-1] == 0.5 * passes
    assert len(report.penalty_history) == len(report.residual_history) == passes
    assert report.data_iterations == passes
    assert report.converged and report.termination == "fixed-point"
    # diagnostics, timings and Newton counts are the solver's to add
    assert report.diagnostics == {} and report.timings == {}
    assert report.newton_history is None
