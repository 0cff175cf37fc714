#!/usr/bin/env python3
"""Generate a synthetic dataset and run the full study over it.

Writes the dataset to WORKDIR/data and the report tables to
WORKDIR/report, prints the CLI's summary, then the headline numbers
per area from the report in memory.

Example:
    python3 scripts/run_synthetic_study.py out --seed 7 --drop-input PR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from uniprod import (
    CRS, REGIMES, RunConfig, UniprodError, ingest, run_pipeline, write_report,
)
from uniprod.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, summarize
from uniprod.synthetic import MAX_UNIVERSITIES, write_synthetic_dataset


def _cell(value, spec: str = "") -> str:
    """A table cell for the overview; a model that did not run shows -."""
    return "-" if value is None else format(value, spec)


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
    try:
        config = RunConfig(regime=args.regime,
                           drop_inputs=tuple(args.drop_input),
                           compare_partial=args.compare_partial)
        report = run_pipeline(ingest(data_dir), config)
        written = write_report(report, args.workdir / "report",
                               config.report_format)
    except (UniprodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    summarize(report, written, sys.stdout)
    code = EXIT_OK if report.fully_successful else EXIT_PARTIAL

    print("\narea overview:")
    for row in report.tables["efficiency_by_area"]:
        print(f"  {row['area_id']}: {row['n_universities']:>3} "
              f"universities, mean TE {_cell(row['te_mean'], '.3f')}, "
              f"mean PTE {_cell(row['pte_mean'], '.3f')}, "
              f"{_cell(row['te_efficient'])} TE-efficient")
    if args.regime == CRS:
        # The global index normalizes PTE, which only VRS yields.
        print("\nno global ranking: it needs --regime vrs or all")
        return code
    print("\ntop of the global ranking:")
    for row in report.tables["global_ranking"][:5]:
        print(f"  #{row['rank']} {row['university_id']} "
              f"(score {row['theta_tot']:.3f}, "
              f"{row['areas_active']} areas)")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
