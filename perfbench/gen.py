"""Seeded input generator for the benchmark workloads.

Each workload becomes a directory holding exactly what a user would hand
the `ddfem` command line: a mesh file, one or two dataset files and an
INI config.  The seed drives every random draw, so one seed always
gives the same files.  A run solves several instances of a workload,
each drawn from (seed, instance index).  The generator uses the package
only to build meshes and the linear-elastic loading path the 2D/3D
tuples are sampled along; everything the program later reads comes
from these files.

2D/3D tuples: pick a random quadrature point of the linear-elastic
reference solution, scale its strain by U(0, 1.2), add a small symmetric
jitter, and take F = I + eps (symmetric, so no rotation).  Stresses come
from a Saint-Venant-Kirchhoff law: S = lam tr(E) I + 2 mu E with
E = (F^T F - I) / 2.  The FP set stores (F, P = F S), the CS set
(C = F^T F, S).

1D rod: Neo-Hookean P(lam) = 2 c1 (lam - lam^-2); the seed jitters the
sampled stretches of both the coarse start set and the refinement pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# "full" is what the benchmark times: one instance solves in 1-3 s on two
# cores, so a run covers every instance and averages out the iteration
# counts that vary with the sampled data.  "smoke" is a seconds-long
# version of the same problems for the benchmark's own self-test.
SIZES = {
    "full": {"fp_cells": 10, "fp_tuples": 15_625,
             "cs_cells": (10, 3, 3), "cs_tuples": 4_096,
             "rod_elements": 40, "rod_coarse": 40, "rod_pool": 20_000},
    "smoke": {"fp_cells": 4, "fp_tuples": 400,
              "cs_cells": (4, 1, 1), "cs_tuples": 300,
              "rod_elements": 8, "rod_coarse": 12, "rod_pool": 2_000},
}

FP_LAW = (1.0e6, 0.3)          # E [Pa], nu: fp-patch, SI units
CS_LAW = (1.0, 0.3)            # E [MPa], nu: cs-box, mm-N-MPa units
ROD_C1 = 1.0e6 / 6.0           # Neo-Hooke c1 [Pa], 1 cm^2 rubber rod
ROD_TRACTION = 583333.33       # [Pa]: analytic end stretch of 2
ROD_BODY = 0.5 * ROD_TRACTION / 0.1   # [N/m^3]: root stress 1.5x the tip's


@dataclass(frozen=True)
class Workload:
    """A generated workload: where its files are and how to run it."""

    directory: Path
    argv: list            # ddfem CLI arguments, relative to `directory`
    formulation: str
    reference: dict       # what the accuracy check compares against


def _write_dataset(path: Path, kind: str, dim: int, strains, stresses) -> None:
    rows = np.hstack([np.asarray(strains, float).reshape(-1, dim * dim),
                      np.asarray(stresses, float).reshape(-1, dim * dim)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dd-dataset v1\nkind={kind} dim={dim} units=SI\n")
        np.savetxt(fh, rows, fmt="%.17g")


def _write_ini(path: Path, sections: dict) -> None:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def _svk(f: np.ndarray, e_mod: float, nu: float) -> np.ndarray:
    """Second Piola stress of a Saint-Venant-Kirchhoff solid, batched."""
    d = f.shape[-1]
    lam = e_mod * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = e_mod / (2.0 * (1.0 + nu))
    green = 0.5 * (np.einsum("nki,nkj->nij", f, f) - np.eye(d))
    tr = np.trace(green, axis1=1, axis2=2)
    return lam * tr[:, None, None] * np.eye(d) + 2.0 * mu * green


def _path_strains(mesh, bcs, law, n: int, rng) -> np.ndarray:
    """Symmetric strains sampled along the linear-elastic loading path."""
    from ddfem.fem import gradient_field
    from ddfem.reference import solve_linear_elastic

    d = mesh.dim
    grad = gradient_field(mesh, solve_linear_elastic(mesh, bcs, law))
    eps = 0.5 * (grad + np.swapaxes(grad, -1, -2)).reshape(-1, d, d)
    pick = rng.integers(eps.shape[0], size=n)
    scale = rng.uniform(0.0, 1.2, size=n)
    jitter = rng.normal(0.0, 0.02 * np.abs(eps).max(), size=(n, d, d))
    jitter = 0.5 * (jitter + np.swapaxes(jitter, 1, 2))
    return scale[:, None, None] * eps[pick] + jitter


def _patch_sets(mesh) -> None:
    """Left and bottom edges, and the right edge as nodes and faces."""
    nodes = mesh.nodes
    mesh.nodesets["left"] = np.flatnonzero(np.isclose(nodes[:, 0], 0.0))
    mesh.nodesets["bottom"] = np.flatnonzero(np.isclose(nodes[:, 1], 0.0))
    right = np.flatnonzero(np.isclose(nodes[:, 0], 1.0))
    right = right[np.argsort(nodes[right, 1])]
    mesh.nodesets["right"] = right
    mesh.facesets["right"] = [(int(a), int(b)) for a, b in zip(right[:-1], right[1:])]


def make_fp_patch(root: Path, seed: int, instance: int, size: str = "full") -> Workload:
    """QUAD4 unit patch, rollers left/bottom, x-traction right, body force."""
    from ddfem.fem import BoundaryConditions, rect_mesh, save_mesh
    from ddfem.reference import LinearElasticLaw

    cfg = SIZES[size]
    root.mkdir(parents=True, exist_ok=True)
    n = cfg["fp_cells"]
    mesh = rect_mesh(1.0, 1.0, n, n)
    _patch_sets(mesh)
    save_mesh(mesh, root / "patch.mesh")
    traction, body = (1.0e4, 0.0), (1.0e4, 5.0e3)
    bcs = BoundaryConditions(
        dirichlet=[(int(i), 0, 0.0) for i in mesh.nodesets["left"]]
        + [(int(i), 1, 0.0) for i in mesh.nodesets["bottom"]],
        tractions=[(face, np.array(traction)) for face in mesh.facesets["right"]],
        body_force=np.array(body))
    law = LinearElasticLaw(*FP_LAW)
    rng = np.random.default_rng([seed, instance, 1])
    f = np.eye(2) + _path_strains(mesh, bcs, law, cfg["fp_tuples"], rng)
    p = np.einsum("nik,nkj->nij", f, _svk(f, *FP_LAW))
    _write_dataset(root / "patch_fp.data", "FP", 2, f, p)
    _write_ini(root / "run.ini", {
        "run": {"formulation": "FP", "mesh": "patch.mesh",
                "dataset": "patch_fp.data", "output": "out", "area": "1.0"},
        "bc": {"dirichlet.left": "x=0", "dirichlet.bottom": "y=0",
               "traction.right": f"{traction[0]!r} {traction[1]!r}",
               "body_force": f"{body[0]!r} {body[1]!r}"},
        "solver": {"mu0": "auto"},
        "reference": {"e_mod": repr(FP_LAW[0]), "nu": repr(FP_LAW[1])},
    })
    return Workload(root, ["solve", "run.ini", "--threads", "2"],
                    "FP", {"kind": "linear-elastic", "e_mod": FP_LAW[0],
                           "nu": FP_LAW[1]})


def make_cs_box(root: Path, seed: int, instance: int, size: str = "full") -> Workload:
    """HEX8 cantilever clamped at x=0 with a prescribed tip y-displacement."""
    from ddfem.fem import BoundaryConditions, box_mesh, save_mesh
    from ddfem.reference import LinearElasticLaw

    cfg = SIZES[size]
    root.mkdir(parents=True, exist_ok=True)
    nx, ny, nz = cfg["cs_cells"]
    lx, ly, lz = 4.0 * nx, 4.0 * ny, 4.0 * nz      # 4 mm cubes
    mesh = box_mesh(lx, ly, lz, nx, ny, nz)
    mesh.nodesets["clamp"] = np.flatnonzero(np.isclose(mesh.nodes[:, 0], 0.0))
    mesh.nodesets["tip"] = np.flatnonzero(np.isclose(mesh.nodes[:, 0], lx))
    save_mesh(mesh, root / "box.mesh")
    tip = 0.05 * lx
    bcs = BoundaryConditions(
        dirichlet=[(int(i), c, 0.0) for i in mesh.nodesets["clamp"] for c in range(3)]
        + [(int(i), 1, tip) for i in mesh.nodesets["tip"]])
    law = LinearElasticLaw(*CS_LAW)
    rng = np.random.default_rng([seed, instance, 2])
    f = np.eye(3) + _path_strains(mesh, bcs, law, cfg["cs_tuples"], rng)
    c = np.einsum("nki,nkj->nij", f, f)
    _write_dataset(root / "box_cs.data", "CS", 3, c, _svk(f, *CS_LAW))
    _write_ini(root / "run.ini", {
        "run": {"formulation": "CS", "mesh": "box.mesh",
                "dataset": "box_cs.data", "output": "out"},
        "bc": {"dirichlet.clamp": "x=0, y=0, z=0", "dirichlet.tip": f"y={tip!r}"},
        "solver": {"mu0": "auto", "load_steps": "2"},
        "reference": {"e_mod": repr(CS_LAW[0]), "nu": repr(CS_LAW[1])},
    })
    return Workload(root, ["solve", "run.ini", "--threads", "2"],
                    "CS", {"kind": "linear-elastic", "e_mod": CS_LAW[0],
                           "nu": CS_LAW[1]})


def make_ml_rod(root: Path, seed: int, instance: int, size: str = "full") -> Workload:
    """Neo-Hookean LINE2 rod refined from a dense pool over six levels."""
    from ddfem.data_gen import Family, piola_stress_1d
    from ddfem.fem import line_mesh, save_mesh

    cfg = SIZES[size]
    root.mkdir(parents=True, exist_ok=True)
    length, area = 0.1, 1.0e-4
    mesh = line_mesh(length, cfg["rod_elements"], area=area)
    mesh.nodesets["left"] = np.array([0])
    mesh.facesets["right"] = [(mesh.n_nodes - 1,)]
    save_mesh(mesh, root / "rod.mesh")
    rng = np.random.default_rng([seed, instance, 3])
    lo, hi = 1.0, 3.2
    for name, n in (("coarse", cfg["rod_coarse"]), ("pool", cfg["rod_pool"])):
        step = (hi - lo) / (n - 1)
        lam = np.linspace(lo, hi, n) + rng.uniform(-0.25, 0.25, size=n) * step
        lam = np.clip(lam, lo, hi)
        p = piola_stress_1d(Family.NEOHOOKE, lam, ROD_C1)
        _write_dataset(root / f"{name}_fp.data", "FP", 1, lam, p)
    _write_ini(root / "run.ini", {
        "run": {"formulation": "FP", "mesh": "rod.mesh",
                "dataset": "coarse_fp.data", "output": "out", "area": repr(area)},
        "bc": {"dirichlet.left": "x=0", "traction.right": repr(ROD_TRACTION),
               "body_force": repr(ROD_BODY)},
        "solver": {"mu0": "auto"},
        "multilevel": {"source": "pool_fp.data", "max_levels": "6",
                       "stop_delta": "0"},
    })
    return Workload(root, ["multilevel", "run.ini", "--threads", "2"],
                    "FP", {"kind": "rod-analytic", "c1": ROD_C1,
                           "traction": ROD_TRACTION, "body": ROD_BODY,
                           "length": length})


MAKERS = {"fp-patch": make_fp_patch, "cs-box": make_cs_box, "ml-rod": make_ml_rod}
