"""Runs one workload's CLI invocations in a fresh process and checks them.

Started by run.py with the path of a manifest that lists the generated
instances.  Every invocation is `ddfem.cli.main(argv)` called in this
process from the instance's directory: one client, sequential solves (a
closed loop).  Instances are visited round-robin until the time budget
is spent; every instance runs at least once and the first one at least
twice, so each run compares repeated outputs byte for byte.

With tracing on, each visit is a pair: one invocation with only the
end-to-end timers installed, then one with every layer wrapped, so the
tracing overhead is measured on the same inputs in the same process.

Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from check import (EQUILIBRIUM_BOUND, displacement, displacement_error,
                   equilibrium_residual, output_digest, rod_exact)
from spans import SELF_METRIC, SETUP_SPANS, SOLVER_SPANS, Tracer

# self-time metrics of spans that sit outside the solver entry call
OUTSIDE_SOLVE = ("cli.self_s", "fem.load_mesh_s", "phase_space.load_s", "report.emit_s")


@dataclass
class Instance:
    directory: Path
    argv: list
    formulation: str
    mesh: object = None
    bcs: object = None
    u_ref: np.ndarray = None
    first: tuple | None = None          # (digest, penalty, data iterations)
    u_err: float | None = None
    runs: list = field(default_factory=list)


def import_package(src: Path) -> None:
    """Import ddfem from the checkout's source tree, and from nowhere else."""
    sys.path.insert(0, str(src))
    import ddfem
    if Path(ddfem.__file__).resolve().parent != (src / "ddfem").resolve():
        raise ImportError(f"ddfem imported from {ddfem.__file__}, not {src}")


def prepare(inst: Instance, ref: dict) -> None:
    """Mesh, boundary conditions and reference displacements for checking."""
    from ddfem import cli
    from ddfem.reference import LinearElasticLaw, solve_linear_elastic

    cfg, _ = cli.load_config(inst.directory / "run.ini")
    mesh = cli.load_mesh(inst.directory / cfg.mesh)
    if cfg.area != mesh.area:
        mesh = replace(mesh, area=cfg.area)
    inst.mesh, inst.bcs = mesh, cli.build_bcs(cfg, mesh)
    if ref["kind"] == "linear-elastic":
        law = LinearElasticLaw(ref["e_mod"], ref["nu"])
        inst.u_ref = solve_linear_elastic(mesh, inst.bcs, law)
    else:
        inst.u_ref = rod_exact(mesh.nodes[:, 0], ref["c1"], ref["traction"],
                               ref["body"], ref["length"])


class Probe:
    """Installs the wrappers for one invocation and keeps what they saw."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.report = None

    def _solved(self, layer: str):
        def after(report, args):
            self.report = report
            self.tracer.counts[f"{layer}.data_iterations"] += report.data_iterations
        return after

    def install(self, full: bool) -> None:
        from ddfem import cli, multilevel, phase_space, solver_cs, solver_fp

        t, c = self.tracer, self.tracer.counts

        def multilevel_done(result, args):
            records, self.report = result
            c["multilevel.levels"] += len(records)
            c["multilevel.max_n_data"] = max(r.n_data for r in records)

        def loaded(dataset, args):
            c["phase_space.load_tuples"] += len(dataset)

        t.wrap(cli, "load_mesh", "fem.load_mesh")
        t.wrap(cli, "load_dataset", "phase_space.load", loaded)
        t.wrap(cli, "solve_fp", "solver_fp.solve", self._solved("solver_fp"))
        t.wrap(cli, "solve_cs", "solver_cs.solve", self._solved("solver_cs"))
        t.wrap(cli, "run_multilevel", "multilevel.run", multilevel_done)
        if not full:
            return
        t.wrap(cli, "emit_report", "report.emit")
        t.wrap(multilevel, "solve_fp", "solver_fp.solve", self._solved("solver_fp"))
        t.wrap(multilevel, "solve_cs", "solver_cs.solve", self._solved("solver_cs"))
        t.wrap(multilevel, "refine_around", "phase_space.refine")
        t.wrap(phase_space, "median_nn_spacing", "phase_space.spacing")
        for mod in (solver_fp, solver_cs):
            t.wrap_search(mod)
            t.wrap_factorize(mod)
            t.wrap(mod, "gradient_field", "fem.gradient")
            t.wrap(mod, "divergence_rhs", "fem.divergence")
        t.wrap(solver_fp, "angular_momentum_defect", "tensors.am_defect")

        def counter(name):
            def after(result, args):
                c[name] += 1
            return after

        def newton_done(result, args):
            c["solver_cs.newton_iters"] += result[2]

        t.wrap(solver_cs, "tangent_blocks", "solver_cs.tangent",
               counter("solver_cs.tangent_calls"))
        t.wrap(solver_cs, "newton_solve", "solver_cs.newton", newton_done)
        for name in ("residual_u", "residual_lambda"):
            t.wrap(solver_cs, name, "solver_cs.residual",
                   counter("solver_cs.residual_calls"))


def invoke(inst: Instance, probe: Probe, traced: bool) -> None:
    """One CLI invocation plus its output checks."""
    from ddfem import cli

    tracer = probe.tracer
    os.chdir(inst.directory)
    shutil.rmtree("out", ignore_errors=True)
    gc.collect()
    tracer.begin_invocation()
    probe.report = None
    probe.install(traced)
    rc, problem = None, None
    out, err = io.StringIO(), io.StringIO()
    idx = tracer.open("cli")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(inst.argv)
    except Exception:                      # a crash is a failed invocation
        problem = traceback.format_exc()
    finally:
        tracer.close(idx)
        tracer.restore()
    rec = {"traced": traced, "start": tracer.spans[idx][1],
           "run_s": tracer.spans[idx][2] - tracer.spans[idx][1],
           "setup_s": tracer.total(idx, SETUP_SPANS),
           "solve_s": tracer.total(idx, SOLVER_SPANS)}
    if traced:
        rec["self"] = tracer.self_times(idx)
        rec["counts"] = dict(tracer.counts)

    report = probe.report
    if problem is None and (rc != 0 or report is None or not report.converged):
        problem = f"exit code {rc}: {err.getvalue().strip()}"
    if problem is None:
        outdir = inst.directory / "out"
        eq = equilibrium_residual(outdir, inst.mesh, inst.bcs, inst.formulation)
        seen = (output_digest(outdir), report.global_penalty, report.data_iterations)
        if not eq <= EQUILIBRIUM_BOUND:
            problem = f"equilibrium residual {eq:.3e} above {EQUILIBRIUM_BOUND}"
        elif inst.first is None:
            inst.first = seen
            u = displacement(outdir, inst.mesh.dim)
            inst.u_err = displacement_error(u, inst.u_ref)
        elif seen != inst.first:
            problem = "outputs, penalty or iterations differ from the first repetition"
    rec["ok"] = problem is None
    if problem is not None:
        print(f"FAILED {inst.directory.name}: {problem}", file=sys.stderr)
    inst.runs.append(rec)


def _median_of_instances(instances, key: str) -> float:
    """Median over instances of each instance's median over its runs."""
    return statistics.median(statistics.median(r[key] for r in inst.runs)
                             for inst in instances)


def end_to_end(instances, penalty_to_joule: float) -> dict:
    checked = [i for i in instances if i.first is not None]
    return {
        "run_s": (_median_of_instances(instances, "run_s"), "s"),
        "setup_s": (_median_of_instances(instances, "setup_s"), "s"),
        "solve_s": (_median_of_instances(instances, "solve_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "penalty": (statistics.median(i.first[1] for i in checked) * penalty_to_joule, "J"),
        "u_err": (statistics.median(i.u_err for i in checked), "ratio"),
    }


def per_layer(instances, units: dict) -> tuple[dict, bool]:
    """Means per traced invocation; their in-solve self times sum to solve_s."""
    runs = [r for inst in instances for r in inst.runs if r["traced"]]
    totals: dict = {}
    for r in runs:
        for k, v in list(r["self"].items()) + list(r["counts"].items()):
            totals[k] = totals.get(k, 0.0) + v
    mean = {k: v / len(runs) for k, v in totals.items()}
    compared = mean.pop("search.compared", 0.0)
    changed = mean.pop("search.changed", 0.0)
    mean["phase_space.search_changed_frac"] = changed / compared if compared else 0.0
    mean["trace.self_sum_s"] = sum(mean.get(k, 0.0) for k in set(SELF_METRIC.values())
                                   if k not in OUTSIDE_SOLVE)
    mean["trace.solve_s"] = statistics.fmean(r["solve_s"] for r in runs)
    ratios = []
    for inst in instances:
        plain = [r["run_s"] for r in inst.runs if not r["traced"]]
        traced = [r["run_s"] for r in inst.runs if r["traced"]]
        if plain and traced:
            ratios.append(statistics.median(traced) / statistics.median(plain) - 1.0)
    mean["trace.overhead_frac"] = statistics.median(ratios)
    sums_match = abs(mean["trace.self_sum_s"] - mean["trace.solve_s"]) <= 1e-6 * mean["trace.solve_s"]
    return {k: (mean.get(k, 0.0), unit) for k, unit in units.items()}, sums_match


def main() -> int:
    manifest = json.loads(Path(sys.argv[1]).read_text())
    import_package(Path(manifest["src"]))
    instances = []
    for spec in manifest["instances"]:
        inst = Instance(Path(spec["directory"]), spec["argv"], spec["formulation"])
        prepare(inst, spec["reference"])
        instances.append(inst)
    probe = Probe(Tracer())
    trace = manifest["trace"]
    deadline = time.perf_counter() + manifest["seconds"]
    # untraced: every instance once and the first one twice, so repeated
    # outputs are compared; traced: each visit is already a repeated pair
    visit, least = 0, (1 if trace else len(instances) + 1)
    while visit < least or time.perf_counter() < deadline:
        inst = instances[visit % len(instances)]
        invoke(inst, probe, traced=False)
        if trace:
            invoke(inst, probe, traced=True)
        visit += 1
    os.chdir(manifest["workdir"])
    with open("runs.json", "w", encoding="utf-8") as fh:
        json.dump([[{k: v for k, v in r.items() if k not in ("self", "counts")}
                    for r in inst.runs] for inst in instances], fh)
    runs = [r for inst in instances for r in inst.runs]
    failed = sum(not r["ok"] for r in runs)
    correct = failed == 0
    metrics = {}
    if any(inst.first is not None for inst in instances):
        if trace:
            metrics, sums_match = per_layer(instances, manifest["per_layer_units"])
            if not sums_match:
                print("FAILED: layer self times do not add up to solve_s", file=sys.stderr)
                correct = False
            probe.tracer.write(Path(manifest["workdir"]) / "spans.jsonl")
        else:
            metrics = end_to_end(instances, manifest["penalty_to_joule"])
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "instances": len(instances),
                      "samples": sum(not r["traced"] for r in runs),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
