"""Byte-exact text of every file the package writes.

Each writer runs on small fixed inputs and its output must equal the
file of the same name under tests/golden/.  The inputs carry a float
that needs all 17 significant digits, a negative zero, and a residual
history one entry shorter than the penalty history (written as nan).
"""

from pathlib import Path

import numpy as np
import pytest

from ddfem.data_gen import UnitLoadLibrary, save_unit_loads
from ddfem.fem import rect_mesh, save_mesh
from ddfem.multilevel import LevelRecord, write_level_table
from ddfem.phase_space import DataSet, PairingKind, save_dataset
from ddfem.report import SolveReport, emit_report

GOLDEN = Path(__file__).parent / "golden"
X17 = 0.1 + 0.2     # repr needs 17 significant digits: 0.30000000000000004


def golden_mesh():
    mesh = rect_mesh(1.0, 0.5, 2, 1)
    mesh.nodes[0] = [-0.0, X17]
    mesh.nodesets["left"] = np.array([0, 3])
    mesh.nodesets["all"] = np.arange(mesh.n_nodes)
    mesh.facesets["right"] = [(2, 5)]
    return mesh


def golden_report():
    mesh = golden_mesh()
    ramp = np.arange(mesh.n_dofs) / 7.0
    u = ramp * X17
    u[1] = -0.0
    strains = np.linspace(-1.0, 1.0, 32).reshape(2, 4, 2, 2) / 3.0
    strains[0, 0, 0, 0] = -0.0
    stresses = 1.0e5 * strains[:, :, ::-1]
    return SolveReport(
        formulation="CS", mesh=mesh, mu0=X17, u=u, lam=-1.0e-3 * ramp,
        strains=strains, stresses=stresses,
        assigned=np.array([[0, 1, 2, 1], [2, 2, 0, 1]]),
        local_penalties=np.array([[X17, 0.0, -0.0, 1e-300], [5e-324, 1.0, 2.5, 1e22]]),
        global_penalty=X17, penalty_history=[1.0, X17, 1e-17],
        residual_history=[0.5, -0.0], termination="max-iterations")


def golden_records():
    return [LevelRecord(level=1, n_data=20, n_support=7, penalty=X17,
                        solver_iterations=6, wall_time=0.51),
            LevelRecord(level=2, n_data=88, n_support=9, penalty=-0.0,
                        solver_iterations=4, wall_time=0.62)]


def golden_dataset():
    strains = np.array([[1.0, X17, X17, 2.0], [-0.0, 0.0, 0.0, 1.5],
                        [1.0 / 3.0, 1e-300, 1e-300, 7.0]])
    return DataSet(PairingKind.CS, 2, strains, 1.0e6 * strains[:, ::-1],
                   mu0=2.5)


def golden_library():
    strains = np.diag(np.full(6, X17))
    stresses = np.arange(36.0).reshape(6, 6) * 1.0e4 / 3.0
    stresses[0, 0] = -0.0
    return UnitLoadLibrary(X17, strains, stresses)


NAMES = ["fields.tsv", "states.tsv", "history.tsv", "solution.vtk",
         "levels.tsv", "dataset.txt", "patch.mesh", "unitloads.txt"]


def write_all(outdir: Path) -> None:
    """Write every file of NAMES into `outdir`."""
    emit_report(golden_report(), outdir, config_hash="0123456789ab", vtk=True)
    write_level_table(golden_records(), outdir / "levels.tsv")
    save_dataset(golden_dataset(), outdir / "dataset.txt")
    save_mesh(golden_mesh(), outdir / "patch.mesh")
    save_unit_loads(golden_library(), outdir / "unitloads.txt")


@pytest.mark.parametrize("name", NAMES)
def test_written_bytes_match_the_golden_file(tmp_path, name):
    write_all(tmp_path)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
