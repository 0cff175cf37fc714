#!/usr/bin/env python3
"""Generate a seeded synthetic input dataset (five CSV files).

Example:
    python3 scripts/make_synthetic_dataset.py out/data --seed 7 \
        --areas 9 --universities 60
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from uniprod.cli import parse_years
from uniprod.config import RunConfig
from uniprod.synthetic import MAX_UNIVERSITIES, write_synthetic_dataset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path,
                        help="directory to write the five CSV files into")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--areas", type=int, default=9,
                        help="number of disciplinary areas (default 9)")
    parser.add_argument("--universities", type=int, default=60,
                        help=f"number of universities, at most "
                             f"{MAX_UNIVERSITIES} (default 60)")
    parser.add_argument("--years", type=parse_years,
                        default=RunConfig().years,
                        help="output years, e.g. 2001-2003 or 2001,2003")
    parser.add_argument("--pubs-per-staff-year", type=float, default=0.6,
                        help="mean publication intensity (default 0.6)")
    args = parser.parse_args(argv)
    if not 1 <= args.universities <= MAX_UNIVERSITIES:
        parser.error(f"--universities must be in 1-{MAX_UNIVERSITIES}, "
                     f"got {args.universities}")
    if args.areas < 1:
        parser.error(f"--areas must be at least 1, got {args.areas}")
    intensity = args.pubs_per_staff_year
    if not (math.isfinite(intensity) and intensity >= 0):
        parser.error(f"--pubs-per-staff-year must be finite and >= 0, "
                     f"got {intensity}")

    try:
        root = write_synthetic_dataset(
            args.out_dir, seed=args.seed, n_areas=args.areas,
            n_universities=args.universities, years=args.years,
            pubs_per_staff_year=args.pubs_per_staff_year,
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in ("staff", "publications", "journals", "funding",
                 "affiliations"):
        path = root / f"{name}.csv"
        with open(path, encoding="utf-8") as handle:
            rows = sum(1 for _ in handle) - 1
        print(f"{path}: {rows} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
