#!/usr/bin/env python3
"""Generate a synthetic dataset and run the full study over it.

Writes the dataset to WORKDIR/data and the report tables to
WORKDIR/report, then prints the headline numbers per area.

Example:
    python3 scripts/run_synthetic_study.py out --seed 7 --drop-input PR
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from uniprod.cli import main as uniprod_main
from uniprod.config import REGIMES, RunConfig
from uniprod.report import read_table
from uniprod.synthetic import MAX_UNIVERSITIES, write_synthetic_dataset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path,
                        help="directory for data/ and report/")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--areas", type=int, default=9)
    parser.add_argument("--universities", type=int, default=60)
    parser.add_argument("--regime", choices=REGIMES,
                        default=RunConfig().regime)
    parser.add_argument("--drop-input", action="append", default=[],
                        metavar="LABEL",
                        help="forwarded to the pipeline (repeatable)")
    parser.add_argument("--compare-partial", action="store_true")
    args = parser.parse_args(argv)
    if not 1 <= args.universities <= MAX_UNIVERSITIES:
        parser.error(f"--universities must be in 1-{MAX_UNIVERSITIES}, "
                     f"got {args.universities}")
    if args.areas < 1:
        parser.error(f"--areas must be at least 1, got {args.areas}")

    data_dir = write_synthetic_dataset(
        args.workdir / "data", seed=args.seed, n_areas=args.areas,
        n_universities=args.universities,
    )
    report_dir = args.workdir / "report"

    cli_args = [str(data_dir), "--out", str(report_dir),
                "--regime", args.regime]
    for label in args.drop_input:
        cli_args += ["--drop-input", label]
    if args.compare_partial:
        cli_args.append("--compare-partial")

    started = time.perf_counter()
    code = uniprod_main(cli_args)
    elapsed = time.perf_counter() - started
    print(f"\npipeline exit code {code} in {elapsed:.1f}s", file=sys.stderr)

    if code in (0, 2):
        print("\narea overview:")
        for row in read_table(report_dir / "efficiency_by_area.csv"):
            te = row["te_mean"]
            pte = row["pte_mean"]
            print(f"  {row['area_id']}: {row['n_universities']:>3} "
                  f"universities, mean TE "
                  f"{'-' if te is None else f'{te:.3f}'}, mean PTE "
                  f"{'-' if pte is None else f'{pte:.3f}'}, "
                  f"{row['te_efficient'] or 0} TE-efficient")
        top = read_table(report_dir / "global_ranking.csv")[:5]
        print("\ntop of the global ranking:")
        for row in top:
            print(f"  #{row['rank']} {row['university_id']} "
                  f"(score {row['theta_tot']:.3f}, "
                  f"{row['areas_active']} areas)")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
