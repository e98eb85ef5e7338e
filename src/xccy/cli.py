"""Command-line front end.

Subcommands: ``validate``, ``simulate``, ``price``, ``bsde``, ``check``.
Exit codes: 0 success, 1 validation/configuration failure (an allocation
that runs out of memory among them), 2 numerical failure, 3 I/O error.
Reports carry no timestamps so that identical inputs and seed produce
byte-identical outputs, whatever the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bsde import BsdeConfig, solve_endogenous
from .collateral import CollateralSpec, build_exogenous_path, check_collateral_spec
from .contracts import Contract
from .csvio import write_grid
from .diagnostics import FALSE_ALARM, check_threshold, family_p_value, family_size, run_martingale_suite
from .errors import ConfigError, ModelValidationError, NumericalError, doc_value
from .model import load_model, validate_model
from .pricing import price_exogenous, price_fully_collateralized
from .simulation import (
    TimeGrid,
    check_error_bar_paths,
    check_finite_estimate,
    combine_moments,
    dump_paths_csv,
    has_error_bar,
    pair_moments,
    simulate,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

RESULTS_COLUMNS = ("trade_id", "convention", "k2", "k3", "price", "std_error", "n_paths", "seed")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for numerics
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_common(p, trade=True):
    p.add_argument("--model", required=True, help="model JSON document")
    if trade:
        p.add_argument("--trade", required=True, help="trade JSON document")
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1, help="threads, capped at the CPU count")
    p.add_argument("--out", default=None, help="output directory (created if missing)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xccy", description="multi-currency collateralized pricing engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model document")
    p.add_argument("--model", required=True)

    p = sub.add_parser("simulate", help="generate scenario paths")
    _add_common(p, trade=False)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--dump-paths", action="store_true")

    p = sub.add_parser("price", help="price a collateralized trade by Monte Carlo")
    _add_common(p)
    p.add_argument(
        "--mode",
        choices=["exogenous", "full-collateral"],
        default="exogenous",
        help="full-collateral uses the closed form instead of Monte Carlo",
    )

    p = sub.add_parser("bsde", help="solve the endogenous-collateral valuation")
    _add_common(p)
    p.add_argument("--delta1", type=float, default=None, help="override trade haircut above the mark")
    p.add_argument("--delta2", type=float, default=None, help="override trade haircut below the mark")
    p.add_argument("--dump-surface", action="store_true")

    p = sub.add_parser("check", help="run the martingale certification suite")
    _add_common(p, trade=False)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--checkpoints", type=_positive_int, default=4)
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=f"|z| bound of each test; default: the family-wise bound at a {FALSE_ALARM:g} false-alarm rate",
    )
    return parser


def _load_trade(path: str) -> tuple[str, Contract, CollateralSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    contract = Contract.from_dict(doc_value(doc, "contract", "trade"))
    spec = CollateralSpec.from_dict(doc["collateral"]) if "collateral" in doc else None
    return str(doc.get("trade_id", "trade")), contract, spec


def _collateralized_trade(args, model) -> tuple[str, Contract, CollateralSpec, TimeGrid]:
    """The ``--trade`` document with its collateral block checked, and its grid of ``--steps`` steps.

    The grid runs to the contract's maturity (1 year for a contract without
    flows) and holds every flow date. A trade without a collateral block, or
    one :func:`check_collateral_spec` rejects, raises :class:`ConfigError`.
    """
    trade_id, contract, spec = _load_trade(args.trade)
    if spec is None:
        raise ConfigError(
            f"{args.command} needs a collateral block in the trade document; price --mode full-collateral needs none"
        )
    check_collateral_spec(model, spec)
    grid = TimeGrid.regular(contract.maturity or 1.0, args.steps, include=contract.flow_times)
    return trade_id, contract, spec, grid


def _dump_file(args, wanted: bool, flag: str, name: str) -> str | None:
    """Path of ``flag``'s file ``name`` under ``--out``, or None unless ``wanted``.

    Checked, and the directory made, before anything is simulated.
    """
    if not wanted:
        return None
    if args.out is None:
        raise ConfigError(f"{flag} requires --out")
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_report(out_dir: str | None, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_dir is None:
        print(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _append_results(out_dir: str, row: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.csv")
    fresh = not os.path.exists(path)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        if fresh:
            fh.write(",".join(RESULTS_COLUMNS) + "\n")
        fh.write(",".join(str(row[name]) for name in RESULTS_COLUMNS) + "\n")  # str of a float is its repr


def _cmd_validate(args, model) -> int:
    drivers = ", ".join(model.driver_labels) or "none"
    print(f"OK: {len(model.currencies)} currencies, {len(model.assets)} assets, drivers: {drivers}")
    return EXIT_OK


def _cmd_simulate(args, model) -> int:
    dump = _dump_file(args, args.dump_paths, "--dump-paths", "paths.csv")
    grid = TimeGrid.regular(args.horizon, args.steps)
    scenario = simulate(model, grid, args.paths, args.seed, n_workers=args.workers)
    if dump is not None:
        scenario.load()  # the dump reads every driver: one pass stores them all, and the means read the store
    if has_error_bar(scenario.n_paths):  # sample_mean of the terminal rows, chunk by chunk: stores no path
        labels = model.driver_labels

        def terminal(cols: slice, tiles) -> tuple:
            *_, (_, levels) = tiles  # the last tile ends at the horizon
            rows = np.reshape([levels[label][-1] for label in labels], (len(labels), cols.stop - cols.start))
            return pair_moments(rows)

        means, std_errors = combine_moments(scenario.map_tiles(terminal, *labels))
    else:  # fewer than two whole antithetic pairs: the means have no error bar
        means, std_errors = scenario.paths[:, -1].mean(axis=-1), None
    for d, label in enumerate(model.driver_labels):
        check_finite_estimate(f"{label} terminal mean", means[d], 0.0 if std_errors is None else std_errors[d])
    report = {
        "command": "simulate",
        "n_paths": scenario.n_paths,
        "seed": scenario.seed,
        "horizon": grid.horizon,
        "n_steps": grid.n_steps,
        "measure": scenario.measure_tag,
        "drivers": list(model.driver_labels),
        "terminal_means": {label: float(means[d]) for d, label in enumerate(model.driver_labels)},
        "terminal_std_errors": {
            label: None if std_errors is None else float(std_errors[d]) for d, label in enumerate(model.driver_labels)
        },
    }
    if dump is not None:
        dump_paths_csv(scenario, dump)
    _write_report(args.out, report)
    return EXIT_OK


def _cmd_price(args, model) -> int:
    if args.mode == "full-collateral":
        trade_id, contract, spec = _load_trade(args.trade)
        k3 = spec.currency if spec is not None else model.domestic
        price = price_fully_collateralized(model, contract, k3)
        row = {
            "trade_id": trade_id,
            "convention": "full-collateral",
            "k2": contract.native_currency,
            "k3": k3,
            "price": price,
            "std_error": 0.0,
            "n_paths": 0,
            "seed": args.seed,
        }
    else:
        trade_id, contract, spec, grid = _collateralized_trade(args, model)
        check_error_bar_paths(args.paths)
        scenario = simulate(model, grid, args.paths, args.seed, n_workers=args.workers)
        coll = build_exogenous_path(scenario, spec, contract)
        result = price_exogenous(scenario, contract, coll, spec)
        row = {"trade_id": trade_id, **result.to_dict()}
    if args.out is not None:
        _append_results(args.out, row)
    _write_report(args.out, {"command": "price", "mode": args.mode, **row})
    return EXIT_OK


def _cmd_bsde(args, model) -> int:
    trade_id, contract, spec, grid = _collateralized_trade(args, model)
    # the solver's driver is that of cash collateral under rehypothecation; it reads no other terms
    for field, value, modelled in (("form", spec.form, "cash"), ("convention", spec.convention, "rehypothecation")):
        if value != modelled:
            raise ConfigError(f"collateral.{field}: bsde solves {modelled!r} collateral only, got {value!r}")
    delta1 = spec.delta1 if args.delta1 is None else args.delta1
    delta2 = spec.delta2 if args.delta2 is None else args.delta2
    dump = _dump_file(args, args.dump_surface, "--dump-surface", "surface.csv")
    cfg = BsdeConfig(grid=grid, n_paths=args.paths, seed=args.seed, n_workers=args.workers)
    result = solve_endogenous(model, contract, spec.currency, delta1, delta2, cfg)
    report = {
        "command": "bsde",
        "trade_id": trade_id,
        "v0": result.v0,
        "v0_std_error": result.v0_std_error,
        "k2": contract.native_currency,
        "k3": spec.currency,
        "delta1": delta1,
        "delta2": delta2,
        "n_paths": result.n_paths,
        "seed": result.seed,
        "n_steps": grid.n_steps,
    }
    if dump is not None:
        write_grid(dump, ("value",), grid.times, [(result.surface,)])
    _write_report(args.out, report)
    return EXIT_OK


def _cmd_check(args, model) -> int:
    check_error_bar_paths(args.paths)
    if args.threshold is not None:
        check_threshold(args.threshold)
    grid = TimeGrid.regular(args.horizon, args.steps)
    scenario = simulate(model, grid, args.paths, args.seed, n_workers=args.workers)
    reports = run_martingale_suite(scenario, checkpoints=args.checkpoints, threshold=args.threshold)
    passed = all(r.passed for r in reports)
    threshold = reports[0].threshold
    report = {
        "command": "check",
        "passed": passed,
        "n_paths": args.paths,
        "seed": args.seed,
        "threshold": threshold,
        "family_size": family_size(c for r in reports for c in r.checkpoints),
        "family_p_value": family_p_value(reports),
        "processes": [r.to_dict() for r in reports],
    }
    _write_report(args.out, report)
    if not passed:
        worst = max(reports, key=lambda r: r.max_abs_z)
        raise NumericalError(
            f"martingale check failed: {worst.process_id} |z|={worst.max_abs_z:.2f} > {threshold:.2f}"
        )
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "price": _cmd_price,
    "bsde": _cmd_bsde,
    "check": _cmd_check,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, validate_model(load_model(args.model)))
    except ModelValidationError as exc:
        for v in exc.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's names the array it could not allocate; a bare one has no text
        print(f"error: out of memory: {exc or 'MemoryError'}; run fewer --paths or --steps", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
