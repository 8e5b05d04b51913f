"""Command-line front end: config files, subcommands, exit codes.

Configs are INI files (see docs/config.md).  Exit codes: 0 for a
converged solve with outputs written, 2 for a nonconverged solve
(outputs flagged NONCONVERGED in their headers when the data loop hit
its pass cap; nothing written when a CS Newton solve fails), 1 for
any input error, reported with a file and line number where one
exists.  The thread count is a command-line flag rather than a config
key so that the config hash echoed in output headers is identical for
every thread count; outputs are bit-identical regardless.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data_gen import Family, GeneratorSpec, convert_pairing, generate
from .fem import BoundaryConditions, Mesh, gradient_field, load_mesh
from .multilevel import MultilevelOptions, run_multilevel, write_level_table
from .phase_space import PairingKind, load_dataset, save_dataset
from .reference import LinearElasticLaw, solve_linear_elastic
from .report import SolveReport, emit_report
from .solver_cs import CsConfig, NewtonError, solve_cs
from .solver_fp import FpConfig, solve_fp
from .tensors import sym

_COMP_NAMES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True, kw_only=True)
class MultilevelSection(MultilevelOptions):
    """[multilevel] section: the run's settings and the refinement pool's file."""

    source: str


@dataclass
class RunConfig:
    """Parsed configuration for the solve-like subcommands."""

    formulation: str
    mesh: str
    output: str
    dataset: str | None = None
    generator: GeneratorSpec | None = None
    area: float = 1.0
    dirichlet: tuple = ()       # (nodeset, component, value) triples
    traction: tuple = ()        # (faceset, vector) pairs
    body_force: tuple | None = None
    emit_fields: bool = True
    emit_states: bool = True
    emit_history: bool = True
    emit_vtk: bool = False
    emit_level_table: bool = True
    solver: object = None       # FpConfig or CsConfig
    multilevel: MultilevelSection | None = None
    reference: LinearElasticLaw | None = None


def _fail(section: str, key: str, msg: str):
    raise ValueError(f"config [{section}] {key}: {msg}")


def _get_str(sec: str, key: str, raw: str) -> str:
    return raw.strip()


def _get_float(sec: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        _fail(sec, key, f"cannot parse '{raw}' as a number")


def _get_float_or_auto(sec: str, key: str, raw: str) -> float | None:
    return None if raw.strip().lower() == "auto" else _get_float(sec, key, raw)


def _get_int(sec: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        _fail(sec, key, f"cannot parse '{raw}' as an integer")


def _get_bool(sec: str, key: str, raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        _fail(sec, key, f"cannot parse '{raw}' as a boolean")
    return states[raw.lower()]


# value parser by field annotation; a field of any other type is not a key
_PARSERS = {str: _get_str, str | None: _get_str, float: _get_float,
            float | None: _get_float_or_auto, int: _get_int, int | None: _get_int,
            bool: _get_bool}

# [generator] keys that map onto GeneratorSpec's enum and range fields
_GEN_MAPPED = {"family": str, "pairing": str, "stretch_min": float,
               "stretch_max": float}


def _keys(cls) -> dict:
    """INI keys of a config dataclass: its scalar fields, name -> parser.

    threads is never a key: it is a command-line flag.
    """
    hints = get_type_hints(cls)
    return {f.name: _PARSERS[hints[f.name]] for f in fields(cls)
            if hints[f.name] in _PARSERS and f.name != "threads"}


def _read_section(cp: configparser.ConfigParser, section: str, cls,
                  unknown: str = "unknown key", mapped: dict | None = None,
                  together: bool = False) -> dict:
    """Parsed values of the keys present in [section], for `cls`'s fields.

    A field without a default is a required key; `together` reports all
    required keys in one message.  `mapped` adds keys, with their value
    types, that the caller turns into fields itself.
    """
    keys = _keys(cls)
    keys.update({key: _PARSERS[typ] for key, typ in (mapped or {}).items()})
    raw = dict(cp.items(section)) if cp.has_section(section) else {}
    for key in raw:
        if key not in keys:
            _fail(section, key, unknown)
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    missing = [key for key in required if key not in raw]
    if missing and together:
        raise ValueError(f"config [{section}]: {' and '.join(required)} are required")
    if missing:
        _fail(section, missing[0], "required key is missing")
    return {key: keys[key](section, key, value) for key, value in raw.items()}


def _build(section: str, cls, values: dict):
    """cls(**values), with its validation error prefixed by the section."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"config [{section}]: {exc}") from None


def _parse_dirichlet(name: str, raw: str) -> list:
    """'x=0, y=1.5e-3' -> [(name, 0, 0.0), (name, 1, 0.0015)]."""
    triples = []
    for part in raw.split(","):
        part = part.strip()
        if "=" not in part:
            _fail("bc", f"dirichlet.{name}", f"expected comp=value, got '{part}'")
        comp_s, _, val_s = part.partition("=")
        comp_s = comp_s.strip().lower()
        if comp_s in _COMP_NAMES:
            comp = _COMP_NAMES[comp_s]
        elif comp_s.isdigit():
            comp = int(comp_s)
        else:
            _fail("bc", f"dirichlet.{name}", f"unknown component '{comp_s}'")
        triples.append((name, comp, _get_float("bc", f"dirichlet.{name}", val_s.strip())))
    return triples


def _solver_config(cp: configparser.ConfigParser, formulation: str):
    cls = FpConfig if formulation == "FP" else CsConfig
    if cp.has_option("solver", "threads"):
        _fail("solver", "threads", "threads is a command-line flag, not a config key")
    return _build("solver", cls, _read_section(
        cp, "solver", cls, unknown=f"unknown key for formulation {formulation}"))


def _generator_spec(cp: configparser.ConfigParser, formulation: str) -> GeneratorSpec:
    values = _read_section(cp, "generator", GeneratorSpec, mapped=_GEN_MAPPED,
                           together=True)
    family_s = values.pop("family")
    try:
        family = Family[family_s.upper()]
    except KeyError:
        _fail("generator", "family", f"unknown family '{family_s}'")
    pairing_s = values.pop("pairing", formulation).upper()
    try:
        pairing = PairingKind(pairing_s)
    except ValueError:
        _fail("generator", "pairing", f"unknown pairing '{pairing_s}'")
    if pairing.value != formulation:
        _fail("generator", "pairing",
              f"pairing {pairing.value} does not match formulation {formulation}")
    lo, hi = GeneratorSpec.stretch_range
    values["stretch_range"] = (values.pop("stretch_min", lo), values.pop("stretch_max", hi))
    return _build("generator", GeneratorSpec, dict(values, family=family, pairing=pairing))


def parse_config(text: str, name: str = "<config>") -> RunConfig:
    """Parse INI text into a validated RunConfig.

    The keys, defaults and value types of [run], [solver], [generator],
    [multilevel] and [reference] are the fields of RunConfig, the
    solver config, GeneratorSpec, MultilevelSection and LinearElasticLaw.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text, source=name)
    except configparser.Error as exc:
        raise ValueError(f"config parse error: {exc}") from None

    if not cp.has_section("run"):
        raise ValueError("config: missing required [run] section")
    run = _read_section(cp, "run", RunConfig)
    formulation = run["formulation"].upper()
    if formulation not in ("FP", "CS"):
        _fail("run", "formulation", f"must be FP or CS, got '{run['formulation']}'")
    run["formulation"] = formulation

    generator = _generator_spec(cp, formulation) if cp.has_section("generator") else None
    if (run.get("dataset") is None) == (generator is None):
        raise ValueError("config: exactly one of [run] dataset and a "
                         "[generator] section must be present")

    dirichlet: list = []
    traction: list = []
    body_force = None
    if cp.has_section("bc"):
        for key, raw in cp.items("bc"):
            if key.startswith("dirichlet."):
                dirichlet.extend(_parse_dirichlet(key[len("dirichlet."):], raw))
            elif key.startswith("traction."):
                vec = tuple(_get_float("bc", key, tok) for tok in raw.split())
                if not vec:
                    _fail("bc", key, "empty traction vector")
                traction.append((key[len("traction."):], vec))
            elif key == "body_force":
                body_force = tuple(_get_float("bc", key, tok) for tok in raw.split())
            else:
                _fail("bc", key, "unknown key")

    multilevel = reference = None
    if cp.has_section("multilevel"):
        multilevel = _build("multilevel", MultilevelSection,
                            _read_section(cp, "multilevel", MultilevelSection))
    if cp.has_section("reference"):
        reference = _build("reference", LinearElasticLaw,
                           _read_section(cp, "reference", LinearElasticLaw))

    return RunConfig(
        **run,
        generator=generator,
        dirichlet=tuple(dirichlet),
        traction=tuple(traction),
        body_force=body_force,
        solver=_solver_config(cp, formulation),
        multilevel=multilevel,
        reference=reference,
    )


def load_config(path) -> tuple[RunConfig, str]:
    """Read a config file; returns (config, 12-hex hash of the file bytes)."""
    raw = Path(path).read_bytes()
    cfg = parse_config(raw.decode("utf-8"), name=str(path))
    return cfg, hashlib.sha256(raw).hexdigest()[:12]


def build_bcs(cfg: RunConfig, mesh: Mesh) -> BoundaryConditions:
    """Resolve named node/face sets against the mesh."""
    dirichlet = []
    for name, comp, value in cfg.dirichlet:
        if name not in mesh.nodesets:
            _fail("bc", f"dirichlet.{name}",
                  f"nodeset '{name}' not found in mesh "
                  f"(available: {sorted(mesh.nodesets) or 'none'})")
        if comp >= mesh.dim:
            _fail("bc", f"dirichlet.{name}",
                  f"component {comp} out of range for a {mesh.dim}D mesh")
        for node in mesh.nodesets[name]:
            dirichlet.append((int(node), comp, value))
    tractions = []
    for name, vec in cfg.traction:
        if name not in mesh.facesets:
            _fail("bc", f"traction.{name}",
                  f"faceset '{name}' not found in mesh "
                  f"(available: {sorted(mesh.facesets) or 'none'})")
        if len(vec) != mesh.dim:
            _fail("bc", f"traction.{name}",
                  f"traction vector has {len(vec)} components, mesh is {mesh.dim}D")
        for face in mesh.facesets[name]:
            tractions.append((face, np.asarray(vec, dtype=float)))
    body_force = None
    if cfg.body_force is not None:
        if len(cfg.body_force) != mesh.dim:
            _fail("bc", "body_force",
                  f"vector has {len(cfg.body_force)} components, mesh is {mesh.dim}D")
        body_force = np.asarray(cfg.body_force, dtype=float)
    return BoundaryConditions(dirichlet=dirichlet, tractions=tractions,
                              body_force=body_force)


def _prepare(cfg: RunConfig, threads: int):
    mesh = load_mesh(cfg.mesh, area=cfg.area)
    dataset = (load_dataset(cfg.dataset) if cfg.dataset is not None
               else generate(cfg.generator))
    bcs = build_bcs(cfg, mesh)
    solver_cfg = replace(cfg.solver, threads=threads)
    return mesh, dataset, bcs, solver_cfg


def _emit(report: SolveReport, cfg: RunConfig, chash: str) -> list:
    return emit_report(report, cfg.output, config_hash=chash,
                       fields=cfg.emit_fields, states=cfg.emit_states,
                       history=cfg.emit_history, vtk=cfg.emit_vtk)


def _finish(report: SolveReport, paths: list) -> int:
    status = "CONVERGED" if report.converged else "NONCONVERGED"
    print(f"{report.formulation} solve {status} ({report.termination}): "
          f"{report.data_iterations} data iterations, "
          f"global penalty {report.global_penalty:.6e}")
    for p in paths:
        print(f"wrote {p}")
    return 0 if report.converged else 2


def cmd_solve(args) -> int:
    cfg, chash = load_config(args.config)
    mesh, dataset, bcs, solver_cfg = _prepare(cfg, args.threads)
    solve = solve_fp if cfg.formulation == "FP" else solve_cs
    report = solve(mesh, bcs, dataset, config=solver_cfg)
    return _finish(report, _emit(report, cfg, chash))


def cmd_multilevel(args) -> int:
    cfg, chash = load_config(args.config)
    if cfg.multilevel is None:
        raise ValueError("config: the multilevel subcommand needs a "
                         "[multilevel] section")
    mesh, initial, bcs, solver_cfg = _prepare(cfg, args.threads)
    records, report = run_multilevel(mesh, bcs, load_dataset(cfg.multilevel.source),
                                     solver_cfg, cfg.multilevel, initial)
    paths = _emit(report, cfg, chash)
    if cfg.emit_level_table:
        table = Path(cfg.output) / "levels.tsv"
        write_level_table(records, table)
        paths.append(table)
    for r in records:
        print(f"level {r.level}: |D|={r.n_data} |S|={r.n_support} "
              f"penalty {r.penalty:.6e} ({r.solver_iterations} iterations)")
    return _finish(report, paths)


def cmd_reference(args) -> int:
    cfg, chash = load_config(args.config)
    if cfg.reference is None:
        raise ValueError("config: the reference subcommand needs a "
                         "[reference] section with e_mod and nu")
    mesh = load_mesh(cfg.mesh, area=cfg.area)
    bcs = build_bcs(cfg, mesh)
    law = cfg.reference
    u = solve_linear_elastic(mesh, bcs, law)
    grad = gradient_field(mesh, u)
    eps = sym(grad)
    sigma = law.stress(eps)
    zeros = np.zeros_like(eps[..., 0, 0])
    report = SolveReport(
        formulation="reference", mesh=mesh, mu0=law.e_mod, u=u,
        lam=np.zeros_like(u), strains=eps, stresses=sigma,
        assigned=zeros.astype(np.int64) - 1, local_penalties=zeros,
        global_penalty=0.0, penalty_history=[], residual_history=[],
        data_iterations=0, termination="direct",
    )
    return _finish(report, _emit(report, cfg, chash))


def cmd_generate(args) -> int:
    lo, _, hi = args.range.partition(":")
    try:
        stretch_range = (float(lo), float(hi))
    except ValueError:
        raise ValueError(f"--range expects MIN:MAX, got '{args.range}'") from None
    spec = GeneratorSpec(
        family=Family[args.family.upper()], c1=args.c1, c3=args.c3, n=args.n,
        stretch_range=stretch_range, pairing=PairingKind(args.pairing),
        log_spacing=args.log_spacing)
    dataset = generate(spec)
    save_dataset(dataset, args.out)
    print(f"wrote {args.out}: {len(dataset)} {dataset.kind.value} tuples, "
          f"mu0 {dataset.mu0:.6e}")
    return 0


def cmd_validate_dataset(args) -> int:
    dataset = load_dataset(args.path)
    print(f"{args.path}: OK, kind={dataset.kind.value} dim={dataset.dim} "
          f"n={len(dataset)} mu0={dataset.mu0:.6e}")
    return 0


def cmd_convert_dataset(args) -> int:
    dataset = load_dataset(args.path)
    converted = convert_pairing(dataset, PairingKind(args.to))
    save_dataset(converted, args.out)
    print(f"wrote {args.out}: {len(converted)} {converted.kind.value} tuples")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddfem",
        description="Data-driven finite element solver for hyperelastic solids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="most workers for the nearest-tuple queries; a "
                            "search gets one per 4,096 queries, so one of "
                            "fewer than 8,192 runs on one; results are "
                            "bit-identical for every value (default: cores)")

    p = sub.add_parser("solve", help="run one data-driven solve from a config")
    p.add_argument("config")
    add_threads(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("multilevel", help="iterated solve with data refinement")
    p.add_argument("config")
    add_threads(p)
    p.set_defaults(func=cmd_multilevel)

    p = sub.add_parser("reference", help="linear elastic comparison solve")
    p.add_argument("config")
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("generate", help="sample a 1D material family to a dataset file")
    p.add_argument("--family", required=True, choices=[f.name.lower() for f in Family])
    p.add_argument("--c1", type=float, required=True, help="shear-like modulus [Pa]")
    p.add_argument("--c3", type=float, default=GeneratorSpec.c3,
                   help="third-order coefficient [Pa]")
    p.add_argument("--n", type=int, default=GeneratorSpec.n)
    p.add_argument("--range", default=":".join(map(repr, GeneratorSpec.stretch_range)),
                   help="stretch range MIN:MAX")
    p.add_argument("--pairing", default=GeneratorSpec.pairing.value, choices=["FP", "CS"])
    p.add_argument("--log-spacing", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate-dataset", help="parse and check a dataset file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate_dataset)

    p = sub.add_parser("convert-dataset", help="re-express a dataset in another pairing")
    p.add_argument("path")
    p.add_argument("out")
    p.add_argument("--to", required=True, choices=["FP", "CS", "EPS"])
    p.set_defaults(func=cmd_convert_dataset)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except NewtonError as exc:
        print(f"NONCONVERGED: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
