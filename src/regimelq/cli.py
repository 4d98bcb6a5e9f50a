"""Command-line orchestration: validate / solve / simulate / verify / report.

    regimelq <command> --config <path> [--seed N] [--output DIR]

Commands
--------
validate
    Check the definiteness assumptions within ``matcore.PSD_TOL``, the
    tolerance at which ``solve`` refuses them, and print the measured
    diffusion size; exit 0 iff the assumptions hold.
solve
    Run the Riccati solver and persist the solution as CSV plus a sibling
    ``.meta.json`` with tolerances, residual history and diagnostics (the
    grid backend integrates directly: no sweeps, an empty history).
    Exit 2 (history still persisted) when the tree's fixed point does not
    converge; a solution file of an earlier run at that path is removed,
    so ``report`` cannot pair it with this run's metadata.
simulate
    Estimate the feedback cost and the cost of each configured
    perturbation by Monte Carlo; write the estimates as CSV.
verify
    Run the forward-backward identity checks and the optimality gaps and
    write a PASS/FAIL report to ``<report_path>.verify.txt``, beside the
    solution report of ``report``; exit 3 when a check fails.  Requires
    the ODE backend (deterministic coefficients).  Each configured
    perturbation is one Monte Carlo batch of the feedback and the
    perturbed policy on common paths; the value match reads the first
    batch's feedback estimate (a batch of the feedback alone without
    perturbations).
report
    Render previously written artifacts into a human-readable summary and
    a plot-ready CSV series.

``simulate`` and ``verify`` start from ``problem.x0`` and ``problem.i0``.

Exit codes: 0 success, 1 validation/configuration failure, 2 solver
non-convergence, 3 verification failure, 4 I/O error.  All artifacts are
byte-deterministic given the config and seed: no timestamps, fixed float
formatting (17 significant digits in CSV files).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import matcore, model
from .config import RunConfig, parse_config
from .control import Policy, feedback_gain, mc_cost, optimality_gap, value_at
from .errors import IoError, NoConvergence, RegimeLQError
from .esre import EsreSolution, solve_esre, solve_p0
from .fbsde import tree_fbsde_oracle, xinv_product_check, ypx_residual
from .model import _smallness_ok, check_smallness, validate_assumptions
from .regime_chain import check_seed

COMMANDS = ("validate", "solve", "simulate", "verify", "report")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFICATION = 3
EXIT_IO = 4
ORDER_FLOOR = 1e-9     # verify's residual order is moot where every rms is at or below it


def _f17(x) -> str:
    return format(float(x), ".17g")


def _f10(x) -> str:
    return format(float(x), ".10g")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_solution_csv(solution: EsreSolution, path) -> None:
    """Write the solution as ``t,regime,row,col,P,Lambda`` lines.

    One line per (sample, regime, entry), sorted by (t, regime, row, col);
    regime/row/col are 1-based.  Floats carry 17 significant digits, so a
    read-back reproduces the stored values exactly.  A sibling
    ``<path>.meta.json`` records backend, grid, tolerances, iteration
    counts, the residual history and the diagnostics.
    """
    path = Path(path)
    _, ell, n, _ = solution.P.shape
    keys = [f",{i + 1},{r + 1},{c + 1},"
            for i in range(ell) for r in range(n) for c in range(n)]
    heads = (t + key for t in map(_f17, solution.grid.tolist()) for key in keys)
    try:
        with path.open("w") as f:
            f.write("t,regime,row,col,P,Lambda\n")
            f.writelines(f"{head}{p:.17g},{lam:.17g}\n" for head, p, lam in zip(
                heads, solution.P.ravel().tolist(), solution.Lambda.ravel().tolist()))
    except OSError as exc:
        raise IoError(f"cannot write solution to {path}: {exc}") from exc
    _write_metadata(path, solution=solution)


def _metadata_payload(solution: EsreSolution = None, options=None,
                      converged: bool = True, residual_history=None) -> dict:
    if solution is not None:
        options = solution.options
        residual_history = solution.residual_history
        d = solution.diagnostics
        diag = {
            "rho": float(d.rho),
            "k_estimate": float(d.k_estimate),
            "log_apriori_bound": float(d.log_apriori_bound),
            "log_measured_sup": float(d.log_measured_sup),
            "lambda_l2": [float(v) for v in np.atleast_1d(d.lambda_l2)],
            "smallness": float(d.smallness),
        }
        grid = {
            "samples": int(len(solution.grid)),
            "t0": float(solution.grid[0]),
            "t_end": float(solution.grid[-1]),
        }
        backend = solution.backend
    else:
        diag = None
        grid = None
        backend = options.backend
    residual_history = residual_history or []
    return {
        "backend": backend,
        "converged": bool(converged),
        "iterations": len(residual_history),
        "grid": grid,
        "tolerances": {
            "grid_steps": int(options.grid_steps),
            "tree_depth": int(options.tree_depth),
            "picard_tol": float(options.picard_tol),
            "picard_max_iter": int(options.picard_max_iter),
        },
        "residual_history": [float(r) for r in residual_history],
        "diagnostics": diag,
    }


def _write_metadata(solution_path: Path, solution: EsreSolution = None,
                    options=None, converged: bool = True,
                    residual_history=None) -> Path:
    meta_path = Path(str(solution_path) + ".meta.json")
    payload = _metadata_payload(solution, options, converged, residual_history)
    try:
        meta_path.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write metadata to {meta_path}: {exc}") from exc
    return meta_path


def read_solution_csv(path):
    """Read back a solution file: (grid, P, Lambda) arrays.

    Raises IoError naming the file when it cannot be read, is not a
    solution file, or has a damaged, missing, extra or repeated row.
    """
    path = Path(path)
    try:
        lines = path.read_text().strip().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read solution from {path}: {exc}") from exc
    if not lines or lines[0] != "t,regime,row,col,P,Lambda":
        raise IoError(f"{path} is not a solution file")
    try:
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    except ValueError as exc:
        raise IoError(f"{path} has a damaged row: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != 6 or not np.isfinite(table).all():
        raise IoError(f"{path} does not hold rows of 6 finite numbers")
    times, k = np.unique(table[:, 0], return_inverse=True)
    idx = table[:, 1:4].astype(int)
    ell, n = int(idx[:, 0].max()), int(idx[:, 1:].max())
    shape = (len(times), ell, n, n)
    i, r, c = (idx - 1).T
    # as many rows as cells, and each cell once: none repeated in place of
    # another (the count goes first, so no bincount outgrows the table)
    if (idx.min() < 1 or np.any(idx != table[:, 1:4])
            or len(table) != len(times) * ell * n * n
            or np.any(np.bincount(np.ravel_multi_index((k, i, r, c), shape)) != 1)):
        raise IoError(f"{path} does not hold one row per sample, regime and entry")
    p = np.zeros(shape)
    lam = np.zeros_like(p)
    p[k, i, r, c] = table[:, 4]
    lam[k, i, r, c] = table[:, 5]
    return times, p, lam


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


@dataclass
class CommandResult:
    exit_code: int
    artifacts: dict


def _resolve_paths(config: RunConfig, output_dir) -> dict:
    out = config.output
    paths = {
        "solution": Path(out.solution_path),
        "report": Path(out.report_path),
        "estimates": Path(out.estimates_path),
    }
    if output_dir is not None:
        base = Path(output_dir)
        base.mkdir(parents=True, exist_ok=True)
        paths = {k: base / p.name for k, p in paths.items()}
    paths["verify"] = Path(str(paths["report"]) + ".verify.txt")
    return paths


def _start(spec):
    """The start state ``(problem.x0, problem.i0)`` of simulate and verify."""
    if spec.x0 is None:
        raise RegimeLQError("simulation needs x0: set problem.x0")
    return spec.x0, spec.i0


def _cmd_validate(config: RunConfig, paths, echo) -> CommandResult:
    report = validate_assumptions(config.problem)
    smallness = check_smallness(config.problem)
    flag = "ok" if _smallness_ok(smallness) else "warn"
    echo(f"assumptions: {'PASS' if report.passed else 'FAIL'}")
    for v in report.violations:
        echo(
            f"  violation {v.assumption} regime={v.regime} at={v.where} "
            f"min_eig={_f10(v.margin)}"
        )
    echo(f"diffusion size: {_f10(smallness)} ({flag}, threshold "
         f"{_f10(model.SMALLNESS_THRESHOLD)})")
    return CommandResult(EXIT_OK if report.passed else EXIT_VALIDATION, {})


def _cmd_solve(config: RunConfig, paths, echo) -> CommandResult:
    try:
        solution = solve_esre(config.problem, config.solver)
    except NoConvergence as exc:
        echo(f"solver did not converge: {exc}")
        try:
            paths["solution"].unlink(missing_ok=True)
        except OSError as err:
            raise IoError(f"cannot remove the old solution {paths['solution']}: {err}") from err
        meta = _write_metadata(paths["solution"], options=config.solver,
                               converged=False,
                               residual_history=exc.residual_history)
        return CommandResult(EXIT_NO_CONVERGENCE, {"metadata": str(meta)})
    write_solution_csv(solution, paths["solution"])
    if solution.backend == "ode":
        echo(f"solved by error-controlled DOP853 integration, output on "
             f"{config.solver.grid_steps} grid steps")
    else:
        echo(f"converged in {solution.iterations} sweeps "
             f"(final residual {_f10(solution.residual_history[-1])})")
    for i in range(config.problem.ell):
        echo(f"P(0,{i + 1}) = {np.array2string(solution.P[0, i], precision=10)}")
    echo(f"solution written to {paths['solution']}")
    return CommandResult(EXIT_OK, {
        "solution": str(paths["solution"]),
        "metadata": str(paths["solution"]) + ".meta.json",
    })


def _cmd_simulate(config: RunConfig, paths, echo, seed) -> CommandResult:
    solution = solve_esre(config.problem, config.solver)
    gains = feedback_gain(solution, config.problem)
    x0, i0 = _start(config.problem)
    sim = config.simulate
    use_seed = sim.seed if seed is None else seed
    rows = ["policy,mean,std_error,n_paths,dt,seed"]
    est = mc_cost(config.problem, gains, x0, i0, sim.n_paths, sim.dt, use_seed)
    val = value_at(solution, x0, i0)
    echo(f"feedback cost: {_f10(est.mean)} +- {_f10(est.std_error)} "
         f"(value {_f10(val)})")
    rows.append(f"feedback,{_f17(est.mean)},{_f17(est.std_error)},"
                f"{est.n_paths},{_f17(est.dt)},{use_seed}")
    for k, pert in enumerate(sim.perturbations):
        pol = Policy(gains=gains, offset=pert)
        pe = mc_cost(config.problem, pol, x0, i0, sim.n_paths, sim.dt, use_seed)
        echo(f"perturbation[{k}] cost: {_f10(pe.mean)} +- {_f10(pe.std_error)}")
        rows.append(f"perturbation[{k}],{_f17(pe.mean)},{_f17(pe.std_error)},"
                    f"{pe.n_paths},{_f17(pe.dt)},{use_seed}")
    try:
        paths["estimates"].write_text("\n".join(rows) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write estimates: {exc}") from exc
    echo(f"estimates written to {paths['estimates']}")
    return CommandResult(EXIT_OK, {"estimates": str(paths["estimates"])})


def _fit_order(dts, values) -> float:
    dts = np.asarray(dts, dtype=float)
    values = np.maximum(np.asarray(values, dtype=float), 1e-300)
    if np.all(values <= ORDER_FLOOR):
        return np.inf        # residuals at roundoff level: the order is moot
    return float(np.polyfit(np.log(dts), np.log(values), 1)[0])


def _cmd_verify(config: RunConfig, paths, echo, seed) -> CommandResult:
    if config.solver.backend != "ode":
        raise RegimeLQError(
            "verify requires the ODE backend (deterministic coefficients); "
            "tree-backend runs support validate/solve/report"
        )
    spec = config.problem
    solution = solve_esre(spec, config.solver)
    gains = feedback_gain(solution, spec)
    x0, i0 = _start(spec)
    sim = config.simulate
    use_seed = sim.seed if seed is None else seed
    checks = []
    lines = ["verification report", "==================="]

    # forward-backward identity on a dt ladder.  Its defect is first order
    # in dt, with a dt^2 term that still bends the fit at 16 grid steps on
    # some problems; where the solution makes the Euler step exact (e1:
    # P(t+dt) - P(t) = dt P(t) P(t+dt)) only the solver's error is left
    dt_sol = solution.grid[1] - solution.grid[0]
    dt_list = [8 * dt_sol, 4 * dt_sol, 2 * dt_sol]
    stats = ypx_residual(solution, spec, i0, dt_list)
    order = _fit_order([s.dt for s in stats], [s.rms for s in stats])
    ok = order >= 0.9
    checks.append(ok)
    lines.append(f"[{'PASS' if ok else 'FAIL'}] product-identity residual order "
                 f"{_f10(order)} >= 0.9")
    for s in stats:
        lines.append(f"    dt={_f10(s.dt)} rms={_f10(s.rms)} max={_f10(s.max)}")

    # inverse-state product drift (informational scale check)
    st = xinv_product_check(spec, i0, gains, dt_sol * 4, seed=use_seed)
    lines.append(f"[info] inverse-state product drift rms={_f10(st.rms)} "
                 f"at dt={_f10(st.dt)}")

    # coupled tree oracle (only meaningful without control noise)
    if spec.D.is_zero() and spec.n <= 2:
        devs = []
        for depth in (4, 8):
            opts = replace(config.solver, backend="tree", tree_depth=depth)
            p0 = solve_p0(spec, opts)
            _, dev = tree_fbsde_oracle(spec, i0, p0, opts)
            devs.append(dev)
        ratio = devs[0] / devs[1] if devs[1] > 0 else np.inf
        # a deviation at roundoff level cannot be expected to halve
        ok = ratio >= 1.5 or devs[0] <= 1e-12
        checks.append(ok)
        lines.append(f"[{'PASS' if ok else 'FAIL'}] coupled-oracle deviation "
                     f"shrinks x{_f10(ratio)} (>= 1.5) when depth doubles "
                     f"({_f10(devs[0])} -> {_f10(devs[1])})")

    # value match and optimality gaps.  Each gap batch steps the feedback
    # on the same paths as mc_cost would, so the first one's feedback
    # estimate is the value match's, bit for bit
    val = value_at(solution, x0, i0)
    gaps = [optimality_gap(spec, solution, pert, sim.n_paths, sim.dt,
                           use_seed, gains=gains, x0=x0, i0=i0)
            for pert in sim.perturbations]
    est = (gaps[0].feedback if gaps
           else mc_cost(spec, gains, x0, i0, sim.n_paths, sim.dt, use_seed))
    tol = max(3.0 * est.std_error, 0.01 * (1.0 + abs(val)))
    ok = abs(est.mean - val) <= tol
    checks.append(ok)
    lines.append(f"[{'PASS' if ok else 'FAIL'}] feedback cost {_f10(est.mean)} "
                 f"matches value {_f10(val)} within {_f10(tol)}")

    for k, gap in enumerate(gaps):
        not_below = gap.gap >= -3.0 * gap.std_error
        pred_tol = max(3.0 * gap.std_error,
                       0.02 * (1.0 + abs(gap.theoretical_gap)))
        near_pred = abs(gap.gap - gap.theoretical_gap) <= pred_tol
        checks.append(not_below and near_pred)
        lines.append(
            f"[{'PASS' if (not_below and near_pred) else 'FAIL'}] "
            f"perturbation[{k}] gap {_f10(gap.gap)} +- {_f10(gap.std_error)} "
            f"vs predicted {_f10(gap.theoretical_gap)} (tol {_f10(pred_tol)})"
        )

    passed = all(checks)
    lines.append(f"result: {'PASS' if passed else 'FAIL'} "
                 f"({sum(checks)}/{len(checks)} checks)")
    try:
        paths["verify"].write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write report: {exc}") from exc
    for line in lines:
        echo(line)
    return CommandResult(
        EXIT_OK if passed else EXIT_VERIFICATION,
        {"report": str(paths["verify"])},
    )


def _meta_lines(meta: dict, grid: np.ndarray) -> list:
    """Report header rendered from a solution's ``.meta.json`` payload."""
    lines = [
        "solution report",
        "===============",
        f"backend: {meta['backend']}",
        f"converged: {meta['converged']}",
        f"iterations: {meta['iterations']}",
        f"grid samples: {len(grid)} on [{_f10(grid[0])}, {_f10(grid[-1])}]",
        "tolerances: " + ", ".join(
            f"{k}={_f10(v) if isinstance(v, float) else v}"
            for k, v in meta["tolerances"].items()
        ),
        "residual history: " + (" ".join(_f10(r) for r in meta["residual_history"])
                                 or "none"),
    ]
    diag = meta.get("diagnostics")
    if diag:
        lines += [
            f"growth constant K: {_f10(diag['k_estimate'])}",
            f"exponential rate rho: {_f10(diag['rho'])}",
            f"a priori bound (log): {_f10(diag['log_apriori_bound'])}, "
            f"measured sup (log): {_f10(diag['log_measured_sup'])}",
            f"diffusion size: {_f10(diag['smallness'])} "
            f"(threshold {_f10(model.SMALLNESS_THRESHOLD)}, "
            f"{'ok' if _smallness_ok(diag['smallness']) else 'warn'})",
        ]
    return lines


def _cmd_report(config: RunConfig, paths, echo) -> CommandResult:
    sol_path = paths["solution"]
    meta_path = Path(str(sol_path) + ".meta.json")
    grid, p, lam = read_solution_csv(sol_path)
    try:
        lines = _meta_lines(json.loads(meta_path.read_text()), grid)
    except OSError as exc:
        raise IoError(f"cannot read metadata {meta_path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IoError(f"damaged metadata {meta_path}: "
                      f"{type(exc).__name__}: {exc}") from exc

    series_path = Path(str(paths["report"]) + ".series.csv")
    rows = ["t,regime,frob_P,min_eig_P,frob_Lambda"]
    for k in range(len(grid)):
        for i in range(p.shape[1]):
            rows.append(
                f"{_f17(grid[k])},{i + 1},"
                f"{_f17(np.linalg.norm(p[k, i]))},"
                f"{_f17(matcore.min_eigenvalue(p[k, i]))},"
                f"{_f17(np.linalg.norm(lam[k, i]))}"
            )
    for i in range(p.shape[1]):
        lines.append(f"P(0,{i + 1}) = {np.array2string(p[0, i], precision=10)}")
    try:
        paths["report"].write_text("\n".join(lines) + "\n")
        series_path.write_text("\n".join(rows) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write report: {exc}") from exc
    # the series path depends on --output, so it is echoed only and the
    # report stays byte-identical across output directories
    for line in lines + [f"series written to {series_path}"]:
        echo(line)
    return CommandResult(EXIT_OK, {
        "report": str(paths["report"]),
        "series": str(series_path),
    })


def run_command(command: str, config: RunConfig, *, seed: int = None,
                output_dir=None, echo=print) -> CommandResult:
    """Execute one CLI command against a parsed configuration.

    ``seed`` overrides the configured simulation seed and must be an
    integer in [0, 2^64) (OutOfRange otherwise); ``output_dir`` redirects
    all artifact files into one directory.
    """
    if command not in COMMANDS:
        raise RegimeLQError(f"unknown command {command!r}")
    if seed is not None:
        check_seed(seed)
    paths = _resolve_paths(config, output_dir)
    if command == "validate":
        return _cmd_validate(config, paths, echo)
    if command == "solve":
        return _cmd_solve(config, paths, echo)
    if command == "simulate":
        return _cmd_simulate(config, paths, echo, seed)
    if command == "verify":
        return _cmd_verify(config, paths, echo, seed)
    return _cmd_report(config, paths, echo)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regimelq",
        description="Regime-switching LQ control: solve, simulate, verify.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="run configuration (YAML)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override simulate.seed")
    parser.add_argument("--output", default=None,
                        help="directory receiving all artifact files")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        result = run_command(args.command, config, seed=args.seed,
                             output_dir=args.output)
        return result.exit_code
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except RegimeLQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
