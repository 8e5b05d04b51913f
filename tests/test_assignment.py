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
               np.zeros((4, 1)), mu0=1.0, validate=False)
MESH = line_mesh(1.0, 2)


class ScriptedPass:
    """A solve_pass that records (ids, scale, start) and returns a fresh
    (u, lam) payload per pass."""

    def __init__(self):
        self.calls = []
        self.payloads = []

    def __call__(self, ids, scale, start):
        self.calls.append((int(ids[0]), scale, start))
        payload = (np.full(MESH.n_dofs, float(len(self.payloads))), np.zeros(MESH.n_dofs))
        self.payloads.append(payload)
        states = np.ones((*MESH.quadrature().weights.shape, 1, 1))
        return states, 0.0 * states, 0.5 * len(self.payloads), payload


def run(tuple_ids, load_steps, max_data_iterations=100):
    solve_pass = ScriptedPass()
    config = SimpleNamespace(max_data_iterations=max_data_iterations, penalty_tol=1e-12,
                             threads=1)
    result = assignment_loop(solve_pass, scripted_search(*tuple_ids), MESH, DATA, config,
                             load_steps)
    return result, solve_pass


def test_steps_chain_their_scales_and_warm_starts():
    # seed 2; step 1 visits 2, 1, 3 and cycles back to 1, so it rolls back
    # to its best pass (tuple 1); steps 2 and 3 stop on a fixed point at 1
    result, solve_pass = run((2, 1, 3, 1, 1), load_steps=3)
    p = solve_pass.payloads
    assert [(ids, scale) for ids, scale, _ in solve_pass.calls] == [
        (2, 1 / 3), (1, 1 / 3), (3, 1 / 3), (1, 2 / 3), (1, 1.0)]
    # within a step each pass starts from the previous pass; step 2 starts
    # from the rolled-back best pass, step 3 from the pass step 2 returned
    starts = [start for _, _, start in solve_pass.calls]
    assert starts[0] is None
    assert starts[1] is p[0] and starts[2] is p[1]
    assert starts[3] is p[1]
    assert starts[4] is p[3]
    assert result.termination == "fixed-point"
    assert result.passes == 5
    # one rollback row after step 1's three passes, then one row per pass
    assert len(result.penalty_history) == len(result.residual_history) == 6
    assert result.residual_history == [0.5, 1.0, 1.5, 1.0, 2.0, 2.5]
    assert result.final.payload is p[4]


def test_a_capped_step_runs_no_later_step():
    # seed 2; step 1 visits 2 and 3 and reaches the cap of two passes
    result, solve_pass = run((2, 3, 0), load_steps=3, max_data_iterations=2)
    assert [scale for _, scale, _ in solve_pass.calls] == [1 / 3, 1 / 3]
    assert not result.converged
    assert result.termination == "max-iterations"
    assert result.passes == 2
    # the capped step returns its best pass, tuple 2, with its row repeated
    assert result.final.payload is solve_pass.payloads[0]
    assert np.all(result.final.assigned == 2)
    assert result.penalty_history[-1] == result.penalty_history[0]


def test_every_search_gets_the_dataset_and_the_thread_cap():
    seen = []
    scripted = scripted_search(2, 1, 1)

    def search(strains, stresses, dataset, workers=1):
        seen.append((dataset, workers))
        return scripted(strains, stresses, dataset, workers)

    config = SimpleNamespace(max_data_iterations=100, penalty_tol=1e-12, threads=3)
    result = assignment_loop(ScriptedPass(), search, MESH, DATA, config)
    # the seed query, then one search after each of the two passes
    assert result.passes == 2 and len(seen) == 3
    assert all(dataset is DATA and workers == 3 for dataset, workers in seen)


@pytest.mark.parametrize("load_steps, passes", [(1, 2), (2, 3)])
def test_report_carries_the_returned_pass_and_every_history_row(load_steps, passes):
    result, solve_pass = run((2, 1, 1), load_steps)
    diagnostics = {"equilibrium_residual": result.final.residual}
    report = result.report("FP", diagnostics, t0=0.0, newton_history=[1] * result.passes)
    u, lam = result.final.payload
    assert report.u is u and report.lam is lam
    assert report.mesh is MESH and report.mu0 == DATA.mu0
    assert report.assigned.shape == MESH.quadrature().weights.shape
    assert np.all(report.assigned == 1)
    assert report.global_penalty == result.final.penalty
    assert report.penalty_history == result.penalty_history
    assert report.data_iterations == result.passes == passes
    assert report.converged and report.termination == "fixed-point"
    assert report.diagnostics is diagnostics
    assert report.newton_history == [1] * result.passes
    assert report.timings["total"] > 0.0
