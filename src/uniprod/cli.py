"""Command-line entry point.

Exit codes: 0 when every area was analyzed, 2 when the report was
written but some areas failed, 1 on fatal input or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import FORMATS, REGIMES, RunConfig
from .errors import UniprodError
from .ingest import ingest, load_overrides
from .pipeline import AnalysisReport, run_pipeline
from .report import write_report

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


def _years_text(years: tuple[int, ...]) -> str:
    """``years`` in the form ``parse_years`` reads."""
    if years == tuple(range(years[0], years[-1] + 1)):
        return f"{years[0]}-{years[-1]}"
    return ",".join(str(y) for y in years)


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
             f"(default {_years_text(defaults.years)})",
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


def _summarize(report: AnalysisReport, written, stream) -> None:
    print(f"areas analyzed: {len(report.areas_analyzed)}", file=stream)
    for row in report.area_failure_rows:
        print(
            f"area {row['area_id']} skipped ({row['reason']}): "
            f"{row['detail']}",
            file=stream,
        )
    d = report.disambiguation_row
    print(
        "publications: {total} total, {resolved} resolved, {manual} for "
        "manual review, {discarded} discarded, {unresolvable} unresolvable"
        .format(**d),
        file=stream,
    )
    if report.manual_review_rows:
        print(
            f"manual review queue: {len(report.manual_review_rows)} "
            "author mention(s) (see manual_review table)",
            file=stream,
        )
    for message in report.warning_rows:
        print(f"warning: {message}", file=stream)
    for path in written:
        print(f"wrote {path}", file=stream)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        written = write_report(report, args.out, config.report_format)
    except (UniprodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    _summarize(report, written, sys.stdout)
    return EXIT_OK if report.fully_successful else EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
