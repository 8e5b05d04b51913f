"""End-to-end acceptance gate for the data-driven solver stack.

Each test prints one `criterion NN: PASS/FAIL` line with the measured
numbers, so a verbose run doubles as the sign-off protocol:

* 01/02  paired FP/CS rod benchmarks on rubber-like sampled data,
* 03     load sweeps on proportional data stay linear,
* 04     grid refinement converges to the linear elastic reference,
* 05     hand-coded Newton tangents match finite differences,
* 06     every recovered stress field satisfies weak equilibrium,
* 07     consistent data is a fixed point of both formulations,
* 08/09  rotation augmentation and unit-load superposition utilities,
* 10     multilevel support and penalty contracts,
* 11     thread count never changes any emitted byte.
"""
import numpy as np
import pytest

from conftest import (coupled_blocks, end_load_bcs, fd_tangent_blocks,
                      fp_equilibrium_residual, random_admissible_state,
                      relative_frobenius)
from ddfem.cli import main
from ddfem.data_gen import (Family, GeneratorSpec, augment_rotations_2d,
                            generate, load_unit_loads, piola_stress_1d,
                            superpose_linear)
from ddfem.fem import BoundaryConditions, line_mesh, rect_mesh, save_mesh
from ddfem.multilevel import MultilevelOptions, run_multilevel
from ddfem.phase_space import (DataSet, PairingKind, refine_around,
                               save_dataset)
from ddfem.reference import LinearElasticLaw, solve_linear_elastic
from ddfem.solver_cs import CsConfig, solve_cs, tangent_blocks
from ddfem.solver_fp import FpConfig, solve_fp
from ddfem.tensors import tensor_to_voigt

C1_RUBBER = 1.0e6 / 6.0     # [Pa]
AREA = 1.0e-4               # [m^2] rod cross section
N_SAMPLES = 10_000


def gate(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def stretch_load(family, lam, c3=0.0):
    """End force [N] that stretches the uniform rod to `lam`."""
    return float(piola_stress_1d(family, lam, C1_RUBBER, c3)) * AREA


def paired_differences(rod_mesh, family, c3, lam_targets):
    """|u_FP - u_CS| / u_FP in percent, one value per target stretch.

    Both solves run on independently sampled sets of the same material
    family, each published in its own strain/stress pairing.
    """
    fp_data = generate(GeneratorSpec(family, c1=C1_RUBBER, c3=c3,
                                     n=N_SAMPLES, stretch_range=(1.0, 3.2)))
    cs_data = generate(GeneratorSpec(family, c1=C1_RUBBER, c3=c3,
                                     n=N_SAMPLES, stretch_range=(1.0, 3.2),
                                     pairing=PairingKind.CS))
    diffs = []
    for lam in lam_targets:
        bcs = end_load_bcs(rod_mesh, stretch_load(family, lam, c3))
        rep_fp = solve_fp(rod_mesh, bcs, fp_data)
        rep_cs = solve_cs(rod_mesh, bcs, cs_data)
        assert rep_fp.converged and rep_cs.converged
        diffs.append(100.0 * abs(rep_fp.u[-1] - rep_cs.u[-1])
                     / abs(rep_fp.u[-1]))
    return diffs


def test_01_neohooke_rod_paired_formulation_differences(rod_mesh):
    targets = {1.5: 14.0, 2.0: 21.0, 3.0: 41.0}
    diffs = paired_differences(rod_mesh, Family.NEOHOOKE, 0.0,
                               list(targets))
    ok = all(abs(d - e) <= 3.0 for d, e in zip(diffs, targets.values()))
    detail = ("measured " + "/".join(f"{d:.3f}" for d in diffs)
              + " % vs expected "
              + "/".join(f"{e:.0f}" for e in targets.values()) + " +-3 pp")
    gate("criterion 01", ok, detail)


def test_02_yeoh_rod_paired_formulation_differences(rod_mesh):
    targets = {1.5: 8.0, 2.0: 19.0}
    diffs = paired_differences(rod_mesh, Family.YEOH, 1.0e3, list(targets))
    ok = all(abs(d - e) <= 3.0 for d, e in zip(diffs, targets.values()))
    detail = ("measured " + "/".join(f"{d:.3f}" for d in diffs)
              + " % vs expected "
              + "/".join(f"{e:.0f}" for e in targets.values()) + " +-3 pp")
    gate("criterion 02", ok, detail)


def test_03_proportional_data_keeps_the_load_sweep_linear(rod_mesh):
    data = generate(GeneratorSpec(Family.LINEAR, c1=C1_RUBBER, n=N_SAMPLES,
                                  stretch_range=(1.0, 3.2)))
    loads = C1_RUBBER * AREA * np.linspace(1.2, 3.0, 10)
    u_ends = []
    for load in loads:
        report = solve_fp(rod_mesh, end_load_bcs(rod_mesh, float(load)), data)
        assert report.converged
        u_ends.append(report.u[-1])
    u_ends = np.array(u_ends)
    fit = np.polyval(np.polyfit(loads, u_ends, 1), loads)
    worst = np.max(np.abs(u_ends - fit))
    allowance = 0.01 * abs(u_ends[-1])
    gate("criterion 03", worst < allowance,
         f"max deviation from the fit {worst:.2e} m, allowed {allowance:.2e} m")


def patch_bcs(mesh, traction):
    """Rollers on the left/bottom edges, x-traction on the right edge."""
    return BoundaryConditions(
        dirichlet=[(int(n), 0, 0.0) for n in mesh.nodesets["left"]]
        + [(int(n), 1, 0.0) for n in mesh.nodesets["bottom"]],
        tractions=[(face, np.array([traction, 0.0]))
                   for face in mesh.facesets["right"]])


def plane_strain_grid_set(h, m=3):
    """On-law tuples on a strain grid that misses the exact state by h/3."""
    law = LinearElasticLaw(1.0e6, 1.0 / 3.0)
    lame_l, lame_m = law.lame
    exact_xx, exact_yy = 8.0 / 9.0e3, -4.0 / 9.0e3
    offsets = h * (np.arange(-m, m + 1) + 1.0 / 3.0)
    strains, stresses = [], []
    for exx in exact_xx + offsets:
        for eyy in exact_yy + offsets:
            eps = np.diag([exx, eyy])
            sig = lame_l * np.trace(eps) * np.eye(2) + 2.0 * lame_m * eps
            strains.append((np.eye(2) + eps).ravel())
            stresses.append(sig.ravel())
    return DataSet(PairingKind.FP, 2, np.array(strains), np.array(stresses),
                   mu0=1.0e6)


def test_04_strain_grid_refinement_converges_to_the_elastic_reference(
        unit_square):
    traction = 1000.0
    bcs = patch_bcs(unit_square, traction)
    u_ref = solve_linear_elastic(unit_square, bcs,
                                 LinearElasticLaw(1.0e6, 1.0 / 3.0))
    u_scale = np.max(np.abs(u_ref))
    h0 = 9.0e-5
    errors = []
    for level in range(3):
        report = solve_fp(unit_square, bcs, plane_strain_grid_set(h0 / 2 ** level))
        assert report.converged
        errors.append(np.max(np.abs(report.u - u_ref)))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = (all(1.5 <= r <= 2.5 for r in ratios)
          and errors[-1] < 0.02 * u_scale)
    gate("criterion 04", ok,
         f"halving ratios {ratios[0]:.2f}/{ratios[1]:.2f}, finest error "
         f"{errors[-1] / u_scale * 100:.2f}% of max displacement")


def test_05_newton_tangents_match_central_differences():
    rng = np.random.default_rng(20240818)
    mu0 = 1.7
    worst = 0.0
    for mesh in (line_mesh(1.0, 3, area=0.7), rect_mesh(1.0, 0.8, 2, 2)):
        for _ in range(10):
            u, lam, c_star, s_star = random_admissible_state(mesh, rng, mu0)
            blocks = coupled_blocks(mesh, tangent_blocks(mesh, u, lam, c_star, s_star, mu0))
            fd = fd_tangent_blocks(mesh, u, lam, c_star, s_star, mu0)
            for got, want in zip(blocks, fd):
                got = got.toarray() if hasattr(got, "toarray") else got
                worst = max(worst, relative_frobenius(got, want))
    gate("criterion 05", worst < 1e-6,
         f"worst relative Frobenius defect {worst:.2e} over 20 states")


def nondimensional_rod():
    """Unit rod with O(1) data holding the exact loaded state."""
    rod = line_mesh(1.0, 10, area=1.0)
    data = DataSet(PairingKind.FP, 1,
                   np.array([[1.0], [1.25], [1.6], [0.8]]),
                   np.array([[0.0], [0.3], [0.9], [-0.25]]),
                   mu0=1.0)
    return rod, data, 0.3


def test_06_recovered_stresses_always_satisfy_weak_equilibrium(
        rod_mesh, unit_square):
    cases = []
    data = generate(GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=2000,
                                  stretch_range=(1.0, 3.2)))
    for lam in (1.3, 1.7, 2.0, 2.6, 3.0):
        bcs = end_load_bcs(rod_mesh, stretch_load(Family.NEOHOOKE, lam))
        cases.append((rod_mesh, bcs, solve_fp(rod_mesh, bcs, data)))
    bcs = patch_bcs(unit_square, 1000.0)
    cases.append((unit_square, bcs,
                  solve_fp(unit_square, bcs, plane_strain_grid_set(9.0e-5))))
    rod, consistent, load = nondimensional_rod()
    bcs = end_load_bcs(rod, load)
    cases.append((rod, bcs, solve_fp(rod, bcs, consistent)))
    worst = max(fp_equilibrium_residual(mesh, bcs, report)
                / np.linalg.norm(bcs.external_force(mesh))
                for mesh, bcs, report in cases)
    gate("criterion 06", worst <= 1e-9,
         f"worst relative equilibrium residual {worst:.2e} over "
         f"{len(cases)} solves")


def test_07_consistent_data_is_a_fixed_point_of_both_formulations():
    rod, fp_data, load = nondimensional_rod()
    rep_fp = solve_fp(rod, end_load_bcs(rod, load), fp_data)
    cs_data = DataSet(PairingKind.CS, 1,
                      np.array([[1.0], [1.5625], [2.2], [0.82]]),
                      np.array([[0.0], [0.24], [0.6], [-0.2]]),
                      mu0=0.4)
    rep_cs = solve_cs(rod, end_load_bcs(rod, 1.25 * 0.24), cs_data,
                      CsConfig(newton_tol=1e-12))
    ok = (rep_fp.converged and rep_cs.converged
          and rep_fp.global_penalty < 1e-18 and rep_cs.global_penalty < 1e-18
          and rep_fp.data_iterations <= 2 and rep_cs.data_iterations <= 2)
    gate("criterion 07", ok,
         f"penalties FP {rep_fp.global_penalty:.1e} / CS "
         f"{rep_cs.global_penalty:.1e}, outer iterations "
         f"{rep_fp.data_iterations} / {rep_cs.data_iterations}")


def test_08_rotation_augmentation_count_and_invariants():
    grid = np.linspace(-0.05, 0.05, 51)
    exx, eyy = np.meshgrid(grid, grid, indexing="ij")
    strains = np.zeros((grid.size ** 2, 4))
    strains[:, 0] = exx.ravel()
    strains[:, 3] = eyy.ravel()
    lame_l, lame_m = LinearElasticLaw(1.0e6, 1.0 / 3.0).lame
    stresses = np.zeros_like(strains)
    trace = strains[:, 0] + strains[:, 3]
    stresses[:, 0] = lame_l * trace + 2.0 * lame_m * strains[:, 0]
    stresses[:, 3] = lame_l * trace + 2.0 * lame_m * strains[:, 3]
    base = DataSet(PairingKind.EPS_SIGMA, 2, strains, stresses, mu0=1.0e6)
    assert len(base) == 2601

    aug = augment_rotations_2d(base, 72)
    count_ok = len(aug) == 189_873

    norm_defect, sym_defect = 0.0, 0.0
    for rows in (aug.strains, aug.stresses):
        blocks = rows.reshape(73, 2601, 4)
        norms = np.linalg.norm(blocks, axis=2)
        scale = np.maximum(norms[0], 1e-30)
        norm_defect = max(norm_defect, np.max(np.abs(norms - norms[0]) / scale))
        sym_defect = max(sym_defect, np.max(np.abs(rows[:, 1] - rows[:, 2])
                                            / np.maximum(np.linalg.norm(rows, axis=1), 1e-30)))
    ok = count_ok and norm_defect <= 1e-10 and sym_defect <= 1e-10
    gate("criterion 08", ok,
         f"count {len(aug)} (expected 189873), norm defect {norm_defect:.1e}, "
         f"symmetry defect {sym_defect:.1e}")


def test_09_unit_load_superposition_reproduces_the_published_response(rng):
    library = load_unit_loads()
    probe = superpose_linear(library, (0.02, 0.0, 0.0, 0.0, 0.0, 0.0))
    expected = [91300.0, 38700.0, 39600.0, 0.0, 0.0, 0.0]
    exact = np.array_equal(tensor_to_voigt(probe.stress), expected)

    linearity = 0.0
    for _ in range(5):
        a = rng.normal(scale=0.01, size=6)
        b = rng.normal(scale=0.01, size=6)
        combined = superpose_linear(library, 2.0 * a - 0.5 * b)
        sa, sb = superpose_linear(library, a), superpose_linear(library, b)
        for field in ("strain", "stress"):
            want = 2.0 * getattr(sa, field) - 0.5 * getattr(sb, field)
            got = getattr(combined, field)
            linearity = max(linearity, np.max(np.abs(got - want))
                            / max(np.max(np.abs(want)), 1e-30))
    gate("criterion 09", exact and linearity <= 1e-12,
         f"axial probe bit-exact: {exact}, linearity defect {linearity:.1e}")


def test_10_multilevel_support_and_penalty_contracts(rod_mesh):
    bcs = BoundaryConditions(
        dirichlet=[(0, 0, 0.0)],
        point_loads=[(rod_mesh.n_nodes - 1, np.array([40.0]))],
        body_force=np.array([2.0e6]))
    source = generate(GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER,
                                    n=N_SAMPLES, stretch_range=(1.0, 3.2)))
    coarse = generate(GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=20,
                                    stretch_range=(1.0, 3.2)), mu0=source.mu0)
    n_qp = rod_mesh.quadrature().weights.size

    # replay the loop by hand to check the level-to-level contracts
    dataset, supports, penalties = coarse, [], []
    contained = True
    for level in range(3):
        report = solve_fp(rod_mesh, bcs, dataset)
        support = np.unique(report.assigned)
        supports.append(support.size)
        penalties.append(report.global_penalty)
        if level < 2:
            refined = refine_around(source, report.assigned, dataset)
            used = {dataset.strains[i].tobytes() for i in support}
            pool = {row.tobytes() for row in refined.strains}
            contained &= used <= pool
            dataset = refined

    records, _ = run_multilevel(rod_mesh, bcs, source, FpConfig(),
                                MultilevelOptions(max_levels=3, stop_delta=0.0,
                                                  penalty_floor=0.0), initial=coarse)
    ok = (all(s <= n_qp for s in supports)
          and contained
          and penalties[-1] <= penalties[0]
          and [r.penalty for r in records] == penalties)
    gate("criterion 10", ok,
         f"supports {supports} (cap {n_qp}), refinements keep used tuples: "
         f"{contained}, penalty {penalties[0]:.1e} -> {penalties[-1]:.1e}")


def test_11_thread_count_never_changes_an_emitted_byte(tmp_path):
    mesh = line_mesh(0.1, 10)
    mesh.nodesets["left"] = np.array([0])
    mesh.nodesets["right"] = np.array([mesh.n_nodes - 1])
    mesh.facesets["right"] = [(mesh.n_nodes - 1,)]
    mesh_path = tmp_path / "rod.mesh"
    save_mesh(mesh, mesh_path)
    traction = stretch_load(Family.NEOHOOKE, 2.0) / AREA

    configs = []
    for formulation in ("FP", "CS"):
        pairing = PairingKind[formulation]
        data = generate(GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=4000,
                                      stretch_range=(1.0, 3.2),
                                      pairing=pairing))
        data_path = tmp_path / f"rubber_{formulation.lower()}.data"
        save_dataset(data, data_path)
        cfg = tmp_path / f"{formulation.lower()}.ini"
        cfg.write_text(f"""\
[run]
formulation = {formulation}
mesh = {mesh_path}
dataset = {data_path}
output = {tmp_path / formulation.lower()}
area = {AREA!r}

[bc]
dirichlet.left = x=0
traction.right = {traction!r}

[solver]
mu0 = auto
""")
        configs.append((formulation, cfg, tmp_path / formulation.lower()))

    names = ("fields.tsv", "states.tsv", "history.tsv")
    identical = True
    for formulation, cfg, outdir in configs:
        assert main(["solve", str(cfg), "--threads", "1"]) == 0
        single = {name: (outdir / name).read_bytes() for name in names}
        assert main(["solve", str(cfg), "--threads", "8"]) == 0
        identical &= all((outdir / name).read_bytes() == single[name]
                         for name in names)
    gate("criterion 11", identical,
         "FP and CS outputs byte-identical for 1 and 8 threads")
