"""Command-line entry point.

    plaplab <experiment> [--config FILE] [--out DIR] [--seed INT] [--assert]
    plaplab norm-table --field FILE [--config FILE] [--out DIR]

Experiments: basic-estimate, decay, oscillation, potential, example55,
reduction.  Each run writes <out>/<experiment>.json and .csv and prints a
summary with the run's wall time; with --assert the process exits nonzero
when any recorded assertion fails.
"""

import argparse
import csv
import dataclasses
import os
import sys
import time

from ..grid import Mesh, read_elem_field
from .config import ExperimentConfig, _prefixed, _sized
from .experiments import EXPERIMENTS, norm_table

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="plaplab",
        description="Empirical checks of pointwise gradient estimates "
                    "for the p-Laplace system")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        _common_flags(sp)
    nt = sub.add_parser("norm-table")
    _common_flags(nt)
    nt.add_argument("--field", required=True, help="element-field table to read")
    nt.add_argument("--grid", type=int, default=None,
                    help="cells per side (overrides config)")
    return parser


def _common_flags(sp):
    sp.add_argument("--config", default=None, help="flat key = value file")
    sp.add_argument("--out", default="reports", help="output directory")
    sp.add_argument("--seed", type=int, default=None, help="override base seed")
    sp.add_argument("--assert", dest="assert_mode", action="store_true",
                    help="exit nonzero on any failed assertion")


def _load_config(args):
    cfg = ExperimentConfig.from_file(args.config) if args.config \
        else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)   # checks it like a config value
    if args.assert_mode:
        cfg.assert_mode = True
    return cfg


def main(argv=None):
    args = _build_parser().parse_args(argv)
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)

    if args.command == "norm-table":
        return _run_norm_table(args, cfg)

    t0 = time.monotonic()
    report = EXPERIMENTS[args.command](cfg)
    report.runtime = time.monotonic() - t0
    report.write_json(os.path.join(args.out, f"{args.command}.json"))
    report.write_csv(os.path.join(args.out, f"{args.command}.csv"))
    for line in report.summary_lines():
        print(line)
    if cfg.assert_mode and not report.all_passed:
        return 1
    return 0


def _run_norm_table(args, cfg):
    try:
        mesh = Mesh(cfg.bounds, args.grid if args.grid is not None else cfg.grids[0])
        field = read_elem_field(args.field)
        with _prefixed(f"{args.field} (set --grid)"):
            _sized(field.tensors, (mesh.num_elements, *field.tensors.shape[1:]))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = norm_table(mesh, field, cfg)
    path = os.path.join(args.out, "norm-table.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["norm", "value"])
        writer.writerows(rows)
    for name, value in rows:
        print(f"{name},{value!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
