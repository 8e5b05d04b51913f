"""End-to-end tests of the command-line front end.

Every test drives `main(argv)` directly and checks exit codes, stdout,
stderr, and the emitted files.
"""

import hashlib
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ddfem import cli, multilevel, textio
from ddfem.cli import MultilevelSection, RunConfig, main, parse_config
from ddfem.data_gen import Family, GeneratorSpec, generate
from ddfem.fem import line_mesh, save_mesh
from ddfem.phase_space import PairingKind, load_dataset, save_dataset
from ddfem.reference import LinearElasticLaw
from ddfem.solver_cs import CsConfig
from ddfem.solver_fp import FpConfig

CONFIG_DOC = Path(__file__).resolve().parents[1] / "docs" / "config.md"

C1_RUBBER = 1.0e6 / 6.0
LOAD_FOR_DOUBLE = 3.5 * C1_RUBBER  # traction [Pa] that doubles the rod


@pytest.fixture
def workspace(tmp_path):
    """Rod mesh file plus a dense rubber dataset file."""
    mesh = line_mesh(0.1, 10)
    mesh.nodesets["left"] = np.array([0])
    mesh.nodesets["right"] = np.array([mesh.n_nodes - 1])
    mesh.facesets["right"] = [(mesh.n_nodes - 1,)]
    mesh_path = tmp_path / "rod.mesh"
    save_mesh(mesh, mesh_path)
    data = generate(GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=2000,
                                  stretch_range=(1.0, 3.2)))
    data_path = tmp_path / "rubber_fp.data"
    save_dataset(data, data_path)
    return tmp_path, mesh_path, data_path


def rod_config(tmp_path, mesh_path, data_path, outdir="out",
               traction=LOAD_FOR_DOUBLE, extra_solver="",
               extra_sections=""):
    text = f"""\
[run]
formulation = FP
mesh = {mesh_path}
dataset = {data_path}
output = {tmp_path / outdir}
area = 1e-4

[bc]
dirichlet.left = x=0
traction.right = {traction!r}

[solver]
mu0 = auto
{extra_solver}
{extra_sections}
"""
    path = tmp_path / f"{outdir}.ini"
    path.write_text(text)
    return path


def cs_rod_config(tmp_path, mesh_path, outdir, traction=LOAD_FOR_DOUBLE):
    """A CS solve of the workspace rod against 200 rubber tuples."""
    data_path = tmp_path / "rubber_cs.data"
    save_dataset(generate(GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=200,
                                        pairing=PairingKind.CS)), data_path)
    cfg = rod_config(tmp_path, mesh_path, data_path, outdir=outdir, traction=traction)
    cfg.write_text(cfg.read_text().replace("formulation = FP", "formulation = CS"))
    return cfg


class TestConfigParsing:
    def test_round_trip_with_dataset_and_extras(self, workspace):
        tmp_path, mesh_path, data_path = workspace
        text = f"""\
[run]
formulation = FP
mesh = {mesh_path}
dataset = {data_path}
output = {tmp_path / 'out'}
area = 2.5e-4
emit_vtk = true

[bc]
dirichlet.left = x=0
traction.right = 1000.0 \n
body_force = 50.0

[solver]
mu0 = 1.5e6
max_data_iterations = 77

[multilevel]
source = {data_path}
max_levels = 3
radius = auto

[reference]
e_mod = 1e6
nu = 0.3333
"""
        assert parse_config(text) == RunConfig(
            formulation="FP", mesh=str(mesh_path), output=str(tmp_path / "out"),
            dataset=str(data_path), area=2.5e-4, emit_vtk=True,
            dirichlet=(("left", 0, 0.0),), traction=(("right", (1000.0,)),),
            body_force=(50.0,),
            solver=FpConfig(mu0=1.5e6, max_data_iterations=77),
            multilevel=MultilevelSection(source=str(data_path), max_levels=3),
            reference=LinearElasticLaw(e_mod=1e6, nu=0.3333))

    def test_round_trip_with_generator(self, workspace):
        tmp_path, mesh_path, _ = workspace
        text = f"""\
[run]
formulation = CS
mesh = {mesh_path}
output = {tmp_path / 'out'}

[solver]
mu0 = auto
load_steps = 3

[generator]
family = neohooke
c1 = 166666.0
n = 500
pairing = CS
"""
        assert parse_config(text) == RunConfig(
            formulation="CS", mesh=str(mesh_path), output=str(tmp_path / "out"),
            generator=GeneratorSpec(Family.NEOHOOKE, c1=166666.0, n=500,
                                    pairing=PairingKind.CS),
            solver=CsConfig(mu0=None, load_steps=3))

    def test_missing_run_section(self):
        with pytest.raises(ValueError, match=r"\[run\]"):
            parse_config("[solver]\nmu0 = auto\n")

    def test_unknown_run_key(self, workspace):
        tmp_path, mesh_path, data_path = workspace
        text = (f"[run]\nformulation = FP\nmesh = {mesh_path}\n"
                f"dataset = {data_path}\noutput = o\ncolor = red\n")
        with pytest.raises(ValueError, match=r"\[run\] color"):
            parse_config(text)

    def test_formulation_must_be_known(self):
        text = "[run]\nformulation = XY\nmesh = m\noutput = o\ndataset = d\n"
        with pytest.raises(ValueError, match="FP or CS"):
            parse_config(text)

    def test_dataset_and_generator_are_exclusive(self, workspace):
        _, mesh_path, data_path = workspace
        text = (f"[run]\nformulation = FP\nmesh = {mesh_path}\n"
                f"dataset = {data_path}\noutput = o\n"
                "[generator]\nfamily = linear\nc1 = 1.0\n")
        with pytest.raises(ValueError, match="exactly one"):
            parse_config(text)
        text = f"[run]\nformulation = FP\nmesh = {mesh_path}\noutput = o\n"
        with pytest.raises(ValueError, match="exactly one"):
            parse_config(text)

    def test_threads_is_not_a_config_key(self, workspace):
        _, mesh_path, data_path = workspace
        text = (f"[run]\nformulation = FP\nmesh = {mesh_path}\n"
                f"dataset = {data_path}\noutput = o\n"
                "[solver]\nthreads = 4\n")
        with pytest.raises(ValueError, match="command-line flag"):
            parse_config(text)

    def test_solver_keys_are_formulation_specific(self, workspace):
        _, mesh_path, data_path = workspace
        text = (f"[run]\nformulation = FP\nmesh = {mesh_path}\n"
                f"dataset = {data_path}\noutput = o\n"
                "[solver]\nnewton_tol = 1e-9\n")
        with pytest.raises(ValueError, match="unknown key for formulation FP"):
            parse_config(text)

    @pytest.mark.parametrize("formulation, passes", [("FP", 200), ("CS", 100)])
    def test_pass_cap_defaults_per_formulation(self, workspace, formulation, passes):
        _, mesh_path, data_path = workspace
        text = (f"[run]\nformulation = {formulation}\nmesh = {mesh_path}\n"
                f"dataset = {data_path}\noutput = o\n")
        assert parse_config(text).solver.max_data_iterations == passes

    @pytest.mark.parametrize("formulation, cls, values", [
        ("FP", FpConfig, {"max_data_iterations": 77, "penalty_tol": 1e-9,
                          "mu0": 1.5e6}),
        ("CS", CsConfig, {"max_data_iterations": 41, "newton_tol": 1e-8,
                          "newton_maxit": 12, "line_search": "backtracking",
                          "ls_factor": 0.25, "ls_maxsteps": 5, "load_steps": 3,
                          "mu0": 2.5e5, "penalty_tol": 1e-10})])
    def test_every_solver_field_parses_and_round_trips(
            self, workspace, formulation, cls, values):
        _, mesh_path, data_path = workspace
        settable = {f.name: f.default for f in fields(cls) if f.name != "threads"}
        assert set(values) == set(settable)
        assert all(values[key] != default for key, default in settable.items())
        solver = "".join(f"{key} = {value}\n" for key, value in values.items())
        text = (f"[run]\nformulation = {formulation}\nmesh = {mesh_path}\n"
                f"dataset = {data_path}\noutput = o\n[solver]\n{solver}")
        assert parse_config(text) == RunConfig(
            formulation=formulation, mesh=str(mesh_path), output="o",
            dataset=str(data_path), solver=cls(**values))

    @pytest.mark.parametrize("line", ["linear_solver = cg", "cg_tol = 1e-14",
                                      "cg_maxit = 100"])
    def test_linear_solver_keys_are_unknown_to_fp(self, workspace, capsys, line):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path, extra_solver=line)
        assert main(["solve", str(cfg)]) == 1
        assert "unknown key for formulation FP" in capsys.readouterr().err

    def test_generator_pairing_must_match_formulation(self, workspace):
        _, mesh_path, _ = workspace
        text = (f"[run]\nformulation = FP\nmesh = {mesh_path}\noutput = o\n"
                "[generator]\nfamily = linear\nc1 = 1.0\npairing = CS\n")
        with pytest.raises(ValueError, match="does not match"):
            parse_config(text)

    @pytest.mark.parametrize("key, what", [
        ("c1", "a number"), ("c3", "a number"), ("n", "an integer"),
        ("stretch_min", "a number"), ("stretch_max", "a number"),
        ("log_spacing", "a boolean")])
    def test_generator_parse_errors_carry_one_prefix(self, key, what):
        section = {"family": "linear", "c1": "1.0", key: "x"}
        text = ("[run]\nformulation = FP\nmesh = m\noutput = o\n[generator]\n"
                + "".join(f"{k} = {v}\n" for k, v in section.items()))
        with pytest.raises(ValueError) as err:
            parse_config(text)
        assert str(err.value) == f"config [generator] {key}: cannot parse 'x' as {what}"

    @pytest.mark.parametrize("line, message", [
        ("c1 = nan", "c1 must be finite, got nan"),
        ("c3 = inf", "c3 must be finite, got inf"),
        ("stretch_max = inf", "stretch_range must be finite, got (1.0, inf)"),
        ("stretch_min = nan", "stretch_range must be finite, got (nan, 3.2)")])
    def test_generator_values_must_be_finite(self, line, message):
        text = ("[run]\nformulation = FP\nmesh = m\noutput = o\n[generator]\n"
                f"family = yeoh\n{line}\n" + ("" if line.startswith("c1") else "c1 = 1.0\n"))
        with pytest.raises(ValueError) as err:
            parse_config(text)
        assert str(err.value) == f"config [generator]: {message}"

    @pytest.mark.parametrize("e_mod", ["nan", "inf"])
    def test_reference_modulus_must_be_finite(self, e_mod):
        text = ("[run]\nformulation = FP\nmesh = m\noutput = o\ndataset = d\n"
                f"[reference]\ne_mod = {e_mod}\nnu = 0.3\n")
        with pytest.raises(ValueError) as err:
            parse_config(text)
        assert str(err.value) == f"config [reference]: e_mod must be finite, got {e_mod}"

    def test_reference_parse_error_carries_one_prefix(self):
        text = ("[run]\nformulation = FP\nmesh = m\noutput = o\ndataset = d\n"
                "[reference]\ne_mod = x\nnu = 0.3\n")
        with pytest.raises(ValueError) as err:
            parse_config(text)
        assert str(err.value) == "config [reference] e_mod: cannot parse 'x' as a number"

    def test_dirichlet_parsing(self):
        text = ("[run]\nformulation = FP\nmesh = m\noutput = o\ndataset = d\n"
                "[bc]\ndirichlet.base = x=0, y=1.5e-3\n")
        cfg = parse_config(text)
        assert cfg.dirichlet == (("base", 0, 0.0), ("base", 1, 1.5e-3))

    def test_dirichlet_numeric_component(self):
        text = ("[run]\nformulation = FP\nmesh = m\noutput = o\ndataset = d\n"
                "[bc]\ndirichlet.base = 1=0.5\n")
        assert parse_config(text).dirichlet == (("base", 1, 0.5),)

    def test_dirichlet_unknown_component(self):
        text = ("[run]\nformulation = FP\nmesh = m\noutput = o\ndataset = d\n"
                "[bc]\ndirichlet.base = w=0\n")
        with pytest.raises(ValueError, match="unknown component 'w'"):
            parse_config(text)

    def test_malformed_ini_reports_a_parse_error(self):
        with pytest.raises(ValueError, match="config parse error"):
            parse_config("not an ini file at all\n")


def documented_keys() -> dict:
    """Section -> keys named in the first cell of its docs/config.md table rows.

    [solver] rows are split by their formulation cell into solver.FP and
    solver.CS.
    """
    keys: dict = {}
    for block in re.split(r"^## ", CONFIG_DOC.read_text(), flags=re.M)[1:]:
        heading = block.splitlines()[0].strip()
        if not re.fullmatch(r"\[\w+\]", heading):
            continue
        section = heading[1:-1]
        if section == "bc":  # patterns over the mesh's set names, not fixed keys
            continue
        for row in re.findall(r"^\| `.*$", block, flags=re.M):
            cells = [c.strip() for c in row.strip("|").split("|")]
            names = set(re.findall(r"`(\w+)`", cells[0]))
            if section == "solver":
                for formulation in ("FP", "CS"):
                    if cells[1] in ("both", formulation):
                        keys.setdefault(f"solver.{formulation}", set()).update(names)
            else:
                keys.setdefault(section, set()).update(names)
    return keys


def test_documented_keys_are_the_accepted_keys():
    accepted = {
        "run": set(cli._keys(RunConfig)),
        "solver.FP": set(cli._keys(FpConfig)),
        "solver.CS": set(cli._keys(CsConfig)),
        "generator": set(cli._keys(GeneratorSpec)) | set(cli._GEN_MAPPED),
        "multilevel": set(cli._keys(MultilevelSection)),
        "reference": set(cli._keys(LinearElasticLaw)),
    }
    assert documented_keys() == accepted


class TestSolveCommand:
    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_penalty_tol_must_be_positive_and_finite(self, workspace, capsys, value):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path, outdir="tol",
                         extra_solver=f"penalty_tol = {value}")
        assert main(["solve", str(cfg), "--threads", "1"]) == 1
        assert "[solver]: tolerances must be positive" in capsys.readouterr().err
        assert not (tmp_path / "tol").exists()

    def test_converged_solve_writes_outputs(self, workspace, capsys):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path)
        assert main(["solve", str(cfg), "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert "FP solve CONVERGED" in out
        outdir = tmp_path / "out"
        for name in ("fields.tsv", "states.tsv", "history.tsv"):
            assert (outdir / name).exists()
        chash = hashlib.sha256(cfg.read_bytes()).hexdigest()[:12]
        header = (outdir / "fields.tsv").read_text().splitlines()[1]
        assert f"config={chash}" in header
        assert "status=CONVERGED" in header
        assert "termination=" in header

    def test_solution_doubles_the_rod(self, workspace):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path)
        main(["solve", str(cfg), "--threads", "1"])
        lines = (tmp_path / "out" / "fields.tsv").read_text().splitlines()
        last = lines[-1].split("\t")
        assert last[0] == "10"
        assert abs(float(last[1]) - 0.1) < 1e-3

    def test_zero_load_keeps_every_field_zero(self, workspace):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path, outdir="zero",
                         traction=0.0)
        assert main(["solve", str(cfg), "--threads", "1"]) == 0
        lines = (tmp_path / "zero" / "fields.tsv").read_text().splitlines()
        for row in lines[3:]:
            _, u0, l0 = row.split("\t")
            assert float(u0) == 0.0
            assert float(l0) == 0.0

    def test_states_file_has_one_row_per_quadrature_point(self, workspace):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path)
        main(["solve", str(cfg), "--threads", "1"])
        lines = (tmp_path / "out" / "states.tsv").read_text().splitlines()
        # 2 header comments + 1 column row + 10 elements x 2 gauss points
        assert len(lines) == 23
        assert lines[2].split("\t")[:2] == ["element", "qp"]

    def test_history_penalties_do_not_increase(self, workspace):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path)
        main(["solve", str(cfg), "--threads", "1"])
        lines = (tmp_path / "out" / "history.tsv").read_text().splitlines()
        penalties = [float(r.split("\t")[1]) for r in lines[3:]]
        assert len(penalties) >= 1
        diffs = np.diff(penalties)
        assert np.all(diffs <= 1e-12 * max(penalties))

    def test_nonconverged_solve_exits_two_and_flags_headers(self, workspace,
                                                            capsys):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path, outdir="hard",
                         extra_solver="max_data_iterations = 1\n")
        assert main(["solve", str(cfg), "--threads", "1"]) == 2
        assert "NONCONVERGED" in capsys.readouterr().out
        header = (tmp_path / "hard" / "fields.tsv").read_text().splitlines()[1]
        assert "status=NONCONVERGED" in header
        assert "termination=max-iterations" in header

    def test_reruns_and_thread_counts_are_bit_identical(self, workspace):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path)
        names = ("fields.tsv", "states.tsv", "history.tsv")

        def snapshot():
            return [(tmp_path / "out" / n).read_bytes() for n in names]

        main(["solve", str(cfg), "--threads", "1"])
        first = snapshot()
        main(["solve", str(cfg), "--threads", "1"])
        assert snapshot() == first
        main(["solve", str(cfg), "--threads", "4"])
        assert snapshot() == first

    def test_outputs_are_the_same_bytes_from_the_kept_table(self, workspace, monkeypatch):
        # the first run keeps the dataset's parsed table, the second reads
        # it, and the third parses the text again once the cache is deleted
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path)
        out, cache = tmp_path / "out", tmp_path / "__ddcache__"
        parsed, rows = [], textio.TextFile.rows

        def logged_rows(src, *args):
            parsed.append(Path(src.name).name)
            return rows(src, *args)

        monkeypatch.setattr(textio.TextFile, "rows", logged_rows)

        def run():
            parsed.clear()
            assert main(["solve", str(cfg)]) == 0
            return data_path.name in parsed, {p.relative_to(out): p.read_bytes()
                                              for p in sorted(out.rglob("*")) if p.is_file()}

        parsed_first, first = run()
        assert parsed_first and len(first) >= 3 and len(list(cache.iterdir())) == 1
        assert run() == (False, first)
        shutil.rmtree(cache)
        assert run() == (True, first)

    def test_missing_nodeset_is_reported(self, workspace, capsys):
        tmp_path, mesh_path, data_path = workspace
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"""\
[run]
formulation = FP
mesh = {mesh_path}
dataset = {data_path}
output = {tmp_path / 'bad_out'}

[bc]
dirichlet.clamp = x=0
""")
        assert main(["solve", str(cfg), "--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert "not found in mesh" in err
        assert "left" in err  # the available sets are listed

    @pytest.mark.parametrize("formulation", ["FP", "CS"])
    @pytest.mark.parametrize("line, bc, message", [
        ("traction.right = .*", "traction.right = nan", "traction on face (10,) is not finite"),
        ("traction.right = .*", "traction.right = inf", "traction on face (10,) is not finite"),
        ("dirichlet.left = .*", "dirichlet.left = x=nan",
         "dirichlet value at node 0 component 0 is not finite"),
        ("dirichlet.left = .*", "dirichlet.left = x=0\nbody_force = nan",
         "body force is not finite")])
    def test_non_finite_boundary_values_are_input_errors(self, workspace, capsys,
                                                         formulation, line, bc, message):
        tmp_path, mesh_path, data_path = workspace
        if formulation == "CS":
            cfg = cs_rod_config(tmp_path, mesh_path, outdir="nonfinite")
        else:
            cfg = rod_config(tmp_path, mesh_path, data_path, outdir="nonfinite")
        cfg.write_text(re.sub(line, bc, cfg.read_text()))
        assert main(["solve", str(cfg), "--threads", "1"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "nonfinite").exists()

    @pytest.mark.filterwarnings("error")
    def test_a_state_beyond_every_tuple_is_an_input_error(self, workspace, capsys):
        # the recovered stresses are finite, but their distance to the data overflows
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path, outdir="far", traction=1e300)
        assert main(["solve", str(cfg), "--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: state 0: distance to the nearest tuple is not finite"
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "far").exists()

    @pytest.mark.filterwarnings("error")
    def test_a_load_that_overflows_the_cs_start_is_an_input_error(self, workspace, capsys):
        # the residual at the load-free start overflows before any Newton step
        tmp_path, mesh_path, _ = workspace
        cfg = cs_rod_config(tmp_path, mesh_path, outdir="far", traction=1e300)
        assert main(["solve", str(cfg), "--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: Newton residual is not finite at the start of the solve, "
                       "load scale 1: the loads or prescribed displacements are too large\n")
        assert not (tmp_path / "far").exists()

    @pytest.mark.filterwarnings("error")
    def test_a_cs_solve_diverging_after_a_step_exits_two(self, workspace, capsys):
        # a finite start residual: the blow-up comes from a Newton step
        tmp_path, mesh_path, _ = workspace
        cfg = cs_rod_config(tmp_path, mesh_path, outdir="diverged", traction=1e20)
        assert main(["solve", str(cfg), "--threads", "1"]) == 2
        assert capsys.readouterr().err == "NONCONVERGED: Newton iteration diverged\n"
        assert not (tmp_path / "diverged").exists()

    def test_missing_config_file_is_an_input_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.ini")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_thread_count_must_be_positive(self, workspace, capsys):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path)
        assert main(["solve", str(cfg), "--threads", "0"]) == 1
        assert "at least 1" in capsys.readouterr().err

    def test_element_id_beyond_int64_is_an_input_error(self, workspace, capsys):
        tmp_path, _, data_path = workspace
        mesh_path = tmp_path / "big.mesh"
        mesh_path.write_text("# dd-mesh v1\ndim=1 etype=LINE2\nnodes 2\n0.0\n1.0\n"
                             "elements 1\n0 99999999999999999999\n")
        cfg = rod_config(tmp_path, mesh_path, data_path)
        assert main(["solve", str(cfg), "--threads", "1"]) == 1
        assert f"error: {mesh_path}:7: malformed number" in capsys.readouterr().err


def spy_solver_entries(monkeypatch):
    """Replace the solver entry points of `cli` and `multilevel` with spies
    that record "module.name" and call through; returns the record."""
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(f"{module.__name__.rpartition('.')[2]}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in [(cli, "solve_fp"), (cli, "solve_cs"), (cli, "run_multilevel"),
                         (multilevel, "solve_fp"), (multilevel, "solve_cs")]:
        spy(module, name)
    return calls


class TestSolverEntryPoints:
    """`main` reaches every solve through the module attributes it imports.

    The benchmark's untraced solve time is the time spent inside
    `cli.solve_fp`, `cli.solve_cs` and `cli.run_multilevel`, and a traced
    run also times `multilevel.solve_fp` and `multilevel.solve_cs`.  A
    dispatch that bound the functions at import time would go around them,
    and the solve time would read 0 s.
    """

    @pytest.mark.parametrize("command, formulation, want", [
        ("solve", "FP", ["cli.solve_fp"]),
        ("solve", "CS", ["cli.solve_cs"]),
        ("multilevel", "FP", ["cli.run_multilevel", "multilevel.solve_fp"]),
        ("multilevel", "CS", ["cli.run_multilevel", "multilevel.solve_cs"]),
    ])
    def test_each_command_calls_its_solver_once(self, workspace, monkeypatch,
                                                command, formulation, want):
        tmp_path, mesh_path, data_path = workspace
        if formulation == "CS":
            data_path = tmp_path / "rubber_cs.data"
            save_dataset(generate(GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=2000,
                                                stretch_range=(1.0, 3.2),
                                                pairing=PairingKind.CS)), data_path)
        extra = (f"[multilevel]\nsource = {data_path}\nmax_levels = 1\n"
                 if command == "multilevel" else "")
        cfg = rod_config(tmp_path, mesh_path, data_path, extra_sections=extra)
        cfg.write_text(cfg.read_text().replace("formulation = FP",
                                               f"formulation = {formulation}"))
        calls = spy_solver_entries(monkeypatch)
        assert main([command, str(cfg), "--threads", "1"]) == 0
        assert calls == want


class TestDatasetCommands:
    def test_generate_then_validate(self, tmp_path, capsys):
        out = tmp_path / "gen.data"
        code = main(["generate", "--family", "neohooke",
                     "--c1", repr(C1_RUBBER), "--n", "50",
                     "--range", "1.0:3.2", "--out", str(out)])
        assert code == 0
        data = load_dataset(out)
        assert len(data) == 50
        assert data.kind is PairingKind.FP
        assert main(["validate-dataset", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("args, message", [
        (["--c1", "nan"], "c1 must be finite, got nan"),
        (["--c1", "1.0", "--c3", "inf"], "c3 must be finite, got inf"),
        (["--c1", "1.0", "--range", "1:inf"], "stretch_range must be finite, got (1.0, inf)")])
    def test_generate_names_a_non_finite_value(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.data"
        assert main(["generate", "--family", "yeoh", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_generate_names_the_first_tuple_that_overflows(self, tmp_path, capsys):
        out = tmp_path / "x.data"
        assert main(["generate", "--family", "neohooke", "--c1", "1e308", "--n", "5",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: tuple 1: non-finite component\n"
        assert not out.exists()

    def test_generate_rejects_a_bad_range(self, tmp_path, capsys):
        code = main(["generate", "--family", "neohooke", "--c1", "1.0",
                     "--range", "oops", "--out", str(tmp_path / "x.data")])
        assert code == 1
        assert "MIN:MAX" in capsys.readouterr().err

    def test_convert_squares_the_stretches(self, workspace, capsys):
        tmp_path, _, data_path = workspace
        out = tmp_path / "rubber_cs.data"
        assert main(["convert-dataset", str(data_path), str(out),
                     "--to", "CS"]) == 0
        fp = load_dataset(data_path)
        cs = load_dataset(out)
        assert cs.kind is PairingKind.CS
        np.testing.assert_allclose(cs.strains, fp.strains ** 2, rtol=1e-12)

    def test_convert_mu0_is_not_a_flag(self, workspace, capsys):
        # a dataset file stores no mu0, so the flag could change no output byte
        tmp_path, _, data_path = workspace
        with pytest.raises(SystemExit) as exc:
            main(["convert-dataset", str(data_path), str(tmp_path / "x.data"),
                  "--to", "CS", "--mu0", "123.0"])
        assert exc.value.code == 2
        assert "--mu0" in capsys.readouterr().err
        assert not (tmp_path / "x.data").exists()

    def test_momentum_violation_is_reported_with_its_line(self, tmp_path,
                                                          capsys):
        bad = tmp_path / "bad.data"
        lines = ["# dd-dataset v1",
                 "kind=FP dim=2 units=SI",
                 "1.0 0.0 0.0 1.0 0.0 0.0 0.0 0.0",
                 "1.0 0.0 0.0 1.0 0.0 500.0 0.0 0.0"]
        for newline in ("\n", "\r\n"):
            bad.write_bytes("".join(line + newline for line in lines).encode())
            assert main(["validate-dataset", str(bad)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {bad}:4: FP pair violates angular momentum balance\n"


def multilevel_config(workspace, outdir, extra=""):
    """Three-level rod config from 30 coarse tuples, refined from the dense set."""
    tmp_path, mesh_path, data_path = workspace
    coarse = generate(GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=30,
                                    stretch_range=(1.0, 3.2)))
    coarse_path = tmp_path / "coarse.data"
    save_dataset(coarse, coarse_path)
    return rod_config(tmp_path, mesh_path, coarse_path, outdir=outdir,
                      extra_sections=f"""\
[multilevel]
source = {data_path}
max_levels = 3
stop_delta = 0.0
penalty_floor = 0.0
{extra}
""")


def level_sizes(path):
    """The n_data column of a levels.tsv."""
    return [int(line.split("\t")[1]) for line in path.read_text().splitlines()[2:]]


class TestMultilevelCommand:
    def test_two_level_run_writes_the_level_table(self, workspace, capsys):
        tmp_path = workspace[0]
        cfg = multilevel_config(workspace, "ml")
        assert main(["multilevel", str(cfg), "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert "level 1:" in out
        table = (tmp_path / "ml" / "levels.tsv").read_text().splitlines()
        assert table[0] == "# dd-levels v1"
        assert len(table) >= 4  # magic, columns, two levels

    def test_keep_all_key_keeps_the_unused_tuples(self, workspace):
        tmp_path = workspace[0]
        sizes = {}
        for keep in ("false", "true"):
            cfg = multilevel_config(workspace, f"keep_{keep}", f"keep_all = {keep}")
            assert main(["multilevel", str(cfg), "--threads", "1"]) == 0
            sizes[keep] = level_sizes(tmp_path / f"keep_{keep}" / "levels.tsv")
        assert sizes["true"][0] == sizes["false"][0] == 30
        assert sizes["true"][1] > sizes["false"][1]

    def test_keep_all_is_not_a_flag(self, workspace, capsys):
        # the config key is the only switch, so the config hash covers it
        cfg = multilevel_config(workspace, "ml_flag")
        with pytest.raises(SystemExit) as exc:
            main(["multilevel", str(cfg), "--keep-all"])
        assert exc.value.code == 2
        assert "--keep-all" in capsys.readouterr().err

    def test_multilevel_requires_its_section(self, workspace, capsys):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path, outdir="ml2")
        assert main(["multilevel", str(cfg), "--threads", "1"]) == 1
        assert "multilevel" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("max_levels = 3", "max_levels = 0", "max_levels must be >= 1, got 0"),
        ("penalty_floor = 0.0", "penalty_floor = 0.0\nradius = -1",
         "radius must be positive and finite, got -1.0"),
        ("stop_delta = 0.0", "stop_delta = nan", "stop_delta must be finite, got nan")],
        ids=["max_levels", "radius", "stop_delta"])
    def test_a_bad_setting_fails_before_any_file_is_read(self, workspace, capsys,
                                                         monkeypatch, old, new, message):
        cfg = multilevel_config(workspace, "ml_early")
        cfg.write_text(cfg.read_text().replace(old, new))
        reads = []
        for name in ("load_mesh", "load_dataset"):
            monkeypatch.setattr(cli, name, lambda *args, **kw: reads.append(args))
        assert main(["multilevel", str(cfg), "--threads", "1"]) == 1
        assert capsys.readouterr().err == f"error: config [multilevel]: {message}\n"
        assert reads == []
        assert not (workspace[0] / "ml_early").exists()

    @pytest.mark.parametrize("radius", ["-1", "0", "nan"])
    def test_radius_must_be_positive_and_finite(self, workspace, capsys, radius):
        cfg = multilevel_config(workspace, "ml_radius", f"radius = {radius}")
        assert main(["multilevel", str(cfg), "--threads", "1"]) == 1
        assert "radius must be positive and finite" in capsys.readouterr().err
        assert not (workspace[0] / "ml_radius").exists()

    @pytest.mark.parametrize("key", ["stop_delta", "penalty_floor"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_stopping_values_must_be_finite(self, workspace, capsys, key, value):
        cfg = multilevel_config(workspace, "ml_stop")
        cfg.write_text(cfg.read_text().replace(f"{key} = 0.0", f"{key} = {value}"))
        assert main(["multilevel", str(cfg), "--threads", "1"]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (workspace[0] / "ml_stop").exists()


class TestReferenceCommand:
    def test_linear_elastic_comparison_solve(self, workspace, capsys):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path, outdir="ref",
                         traction=1.0e5,
                         extra_sections="[reference]\ne_mod = 2e9\nnu = 0.3\n")
        assert main(["reference", str(cfg)]) == 0
        assert "reference solve CONVERGED" in capsys.readouterr().out
        lines = (tmp_path / "ref" / "fields.tsv").read_text().splitlines()
        # u(L) = sigma L / E = 1e5 * 0.1 / 2e9
        u_end = float(lines[-1].split("\t")[1])
        assert abs(u_end - 5.0e-6) < 1e-12

    def test_reference_requires_its_section(self, workspace, capsys):
        tmp_path, mesh_path, data_path = workspace
        cfg = rod_config(tmp_path, mesh_path, data_path, outdir="ref2")
        assert main(["reference", str(cfg)]) == 1
        assert "reference" in capsys.readouterr().err
