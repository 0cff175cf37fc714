"""Command-line entry point.

Exit codes: 0 when every area was analyzed, 2 when the report was
written but some areas failed, 1 on fatal input or usage errors.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .config import FORMATS, REGIMES, RunConfig
from .dea import CRS
from .errors import UniprodError
from .ingest import ingest, load_overrides
from .pipeline import run_pipeline
from .report import AnalysisReport, write_report

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the fatal code."""

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_FATAL, f"{self.prog}: error: {message}\n")


def parse_years(text: str) -> tuple[int, ...]:
    """Accept ``2001-2003`` (inclusive range) or ``2001,2002,2003``, with
    every year in 1000-9999 (a range is bounded before it is built)."""
    text = text.strip()
    is_range = "-" in text
    try:
        years = tuple(int(p) for p in text.split("-" if is_range else ","))
    except ValueError:
        years = ()
    if not years or (is_range and len(years) != 2):
        raise argparse.ArgumentTypeError(
            f"cannot parse years {text!r}: use 2001-2003 or 2001,2002,2003"
        )
    for year in years:
        if not 1000 <= year <= 9999:
            raise argparse.ArgumentTypeError(
                f"year {year} in {text!r} is outside 1000-9999"
            )
    if not is_range:
        return years
    lo, hi = years
    if hi < lo:
        raise argparse.ArgumentTypeError(f"year range {text!r} is reversed")
    return tuple(range(lo, hi + 1))


def build_parser() -> argparse.ArgumentParser:
    defaults = RunConfig()
    parser = _Parser(
        prog="uniprod",
        description=(
            "Research productivity study: builds staff/funding inputs and "
            "publication outputs per discipline area, scores universities "
            "with output-oriented frontier models, and writes report tables."
        ),
    )
    parser.add_argument(
        "data_dir", type=Path,
        help=(
            "directory with staff.csv, publications.csv, journals.csv, "
            "funding.csv and affiliations.csv"
        ),
    )
    parser.add_argument(
        "--years", type=parse_years, default=defaults.years,
        metavar="SPEC",
        help="output window, e.g. 2001-2003 or 2001,2002,2003 "
             f"(default {defaults.years[0]}-{defaults.years[-1]})",
    )
    parser.add_argument(
        "--lag", type=int, default=defaults.lag, metavar="N",
        help="staff snapshot lag in years behind each output year "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--min-staff", type=float, default=defaults.min_staff, metavar="X",
        help="minimum mean research staff for a university to enter an area "
             "model (default %(default)s)",
    )
    parser.add_argument(
        "--regime", choices=REGIMES, default=defaults.regime,
        help="frontier returns-to-scale regime; 'all' adds the scale "
             "decomposition (default %(default)s)",
    )
    parser.add_argument(
        "--drop-input", action="append", default=[], metavar="LABEL",
        dest="drop_inputs",
        help="re-run each area without this input and report ranking shifts "
             "(repeatable; needs --regime vrs or all)",
    )
    parser.add_argument(
        "--compare-partial", action="store_true",
        help="compare frontier ranks against the publications-per-staff "
             "ratio ranking (needs --regime vrs or all)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=defaults.report_format,
        dest="report_format",
        help="report format (default %(default)s: one file per table)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("report"), metavar="DIR",
        help="output directory (default ./report)",
    )
    parser.add_argument(
        "--manual-overrides", type=Path, default=None, metavar="FILE",
        help="CSV resolving ambiguous author matches "
             "(pub_id,author_position,staff_id; blank staff_id discards)",
    )
    return parser


def _cell(value, spec: str = "") -> str:
    """An overview cell; a model that did not run shows -."""
    return "-" if value is None else format(value, spec)


def summarize(report: AnalysisReport, written) -> None:
    """Print the run's summary: areas, failures, matching counts,
    warnings and the files written, then each analyzed area's overview
    and the top of the global ranking."""
    print(f"areas analyzed: {len(report.areas_analyzed)}")
    for row in report.tables["area_failures"]:
        print(f"area {row['area_id']} skipped ({row['reason']}): "
              f"{row['detail']}")
    print(
        "publications: {total} total, {resolved} resolved, {manual} for "
        "manual review, {discarded} discarded, {unresolvable} unresolvable"
        .format(**report.tables["disambiguation_stats"][0])
    )
    if report.tables["manual_review"]:
        print(f"manual review queue: {len(report.tables['manual_review'])} "
              "author mention(s) (see manual_review table)")
    for row in report.tables["warnings"]:
        print(f"warning: {row['message']}")
    for path in written:
        print(f"wrote {path}")

    print("\narea overview:")
    for row in report.tables["efficiency_by_area"]:
        print(f"  {row['area_id']}: {row['n_universities']:>3} "
              f"universities, mean TE {_cell(row['te_mean'], '.3f')}, "
              f"mean PTE {_cell(row['pte_mean'], '.3f')}, "
              f"{_cell(row['te_efficient'])} TE-efficient")
    if report.config["regime"] == CRS:
        # The global index normalizes PTE, which only VRS yields.
        print("\nno global ranking: it needs --regime vrs or all")
        return
    print("\ntop of the global ranking:")
    for row in report.tables["global_ranking"][:5]:
        print(f"  #{row['rank']} {row['university_id']} "
              f"(score {row['theta_tot']:.3f}, {row['areas_active']} areas)")


def main(argv=None) -> int:
    """Run one study and return its exit code.  The cyclic garbage
    collector is off from ``ingest`` through ``summarize``, since the
    run's objects live that long and form no cycles; it is back on, if
    the caller had it on, only as ``main`` returns."""
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        config = RunConfig(
            years=args.years,
            lag=args.lag,
            min_staff=args.min_staff,
            regime=args.regime,
            drop_inputs=tuple(args.drop_inputs),
            compare_partial=args.compare_partial,
            report_format=args.report_format,
        )
        corpus = ingest(args.data_dir)
        overrides = None
        if args.manual_overrides is not None:
            overrides = load_overrides(args.manual_overrides, corpus)
        report = run_pipeline(corpus, config, overrides)
        written = write_report(report, args.out)
    except (UniprodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    else:
        try:
            summarize(report, written)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader left early and the report is written.  Python
            # flushes stdout again at exit, so point it at devnull.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK if report.fully_successful else EXIT_PARTIAL
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
