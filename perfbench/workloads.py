"""The three study workloads: their inputs, CLI arguments and output checks.

Inputs come only from the seed.  The CSV workloads use the package's own
seeded generator (``uniprod.synthetic``); ``frontier-wide`` uses
``frontier.py``.  Generation runs in the parent process, before and
outside every timed run.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import frontier

ALL_LAYERS = ("cli", "ingest", "records", "disambiguation", "bibliometrics",
              "pipeline", "dea", "lp", "analysis", "report")

CSV_TABLES = (
    "area_failures", "descriptive_stats", "disambiguation_stats",
    "efficiency_by_area", "exclusions", "global_ranking", "manual_review",
    "partial_comparison", "scores", "sensitivity", "tertiles", "warnings",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "csv" (a uniprod CLI run) or "frontier" (in-memory arrays)
    generator: dict
    cli_args: tuple[str, ...] = ()
    layers: tuple[str, ...] = ALL_LAYERS
    outputs: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w for w in (
        # The C10 corpus and the paper-scale target: every layer works.
        Workload(
            "paper", "csv",
            {"n_areas": 9, "n_universities": 60, "pubs_per_staff_year": 0.6},
            ("--drop-input", "PR", "--compare-partial"),
            outputs=tuple(f"{t}.csv" for t in CSV_TABLES) + ("run_config.json",),
        ),
        # The generator's largest corpus with three times the publication
        # rate: ingest, records, disambiguation and bibliometrics carry
        # the run, the LP layer sees one small CRS model per area, and the
        # JSON report path is taken.
        Workload(
            "corpus-heavy", "csv",
            {"n_areas": 3, "n_universities": 79, "pubs_per_staff_year": 2.0},
            ("--regime", "crs", "--format", "json"),
            outputs=("report.json",),
        ),
        # Large LPs (n = 250) with no ingest or disambiguation at all.
        Workload(
            "frontier-wide", "frontier",
            {"n_units": frontier.N_UNITS, "drop_input": "PR"},
            layers=("dea", "lp", "analysis"),
            outputs=("frontier_results.json",),
        ),
    )
}


def make_inputs(workload: Workload, seed: int, data_dir: Path) -> dict:
    """Write the workload's inputs under ``data_dir``; return their sizes."""
    data_dir.mkdir(parents=True, exist_ok=True)
    gen = workload.generator
    if workload.kind == "frontier":
        spec = frontier.generate(seed, gen["n_units"])
        spec["drop_input"] = gen["drop_input"]
        (data_dir / "frontier.json").write_text(json.dumps(spec),
                                               encoding="utf-8")
        return {"publications": 0, "staff": 0, "tokens": 0,
                "units": len(spec["units"])}
    from uniprod.synthetic import write_synthetic_dataset
    write_synthetic_dataset(data_dir, seed=seed, n_areas=gen["n_areas"],
                            n_universities=gen["n_universities"],
                            pubs_per_staff_year=gen["pubs_per_staff_year"])
    with open(data_dir / "publications.csv", encoding="utf-8") as fh:
        pubs = list(csv.DictReader(fh))
    with open(data_dir / "staff.csv", encoding="utf-8") as fh:
        staff = sum(1 for _ in csv.DictReader(fh))
    return {
        "publications": len(pubs),
        "staff": staff,
        "tokens": sum(len(p["authors"].split(";")) for p in pubs if p["authors"]),
    }


def output_digests(workload: Workload, out_dir: Path) -> dict[str, str]:
    """sha256 of every output file the workload must produce."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in workload.outputs if (out_dir / name).is_file()
    }


def check_outputs(workload: Workload, out_dir: Path, sizes: dict) -> tuple[list[str], int]:
    """Seed-independent checks on one run's outputs.

    Returns the problems found and the number of scored units.  These
    hold for every seed; the recorded digests pin exact bytes for the
    seeds they cover.
    """
    problems = [f"missing output {name}" for name in workload.outputs
                if not (out_dir / name).is_file()]
    if problems:
        return problems, 0
    crs_only = "crs" in workload.cli_args
    if workload.kind == "frontier":
        body = json.loads((out_dir / "frontier_results.json").read_text("utf-8"))
        rows = [{"te": te, "pte": pte, "se": se, "rts": rts}
                for _, te, pte, se, rts in body["units"]]
        tert = body["tertiles"]
        if tert["efficient"] + tert["inefficient"] != len(rows):
            problems.append("tertile counts do not cover every unit")
        total = None
    elif "json" in workload.cli_args:
        tables = json.loads((out_dir / "report.json").read_text("utf-8"))["tables"]
        rows = tables["scores"]
        total = tables["disambiguation_stats"][0]["total"]
    else:
        with open(out_dir / "scores.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(out_dir / "disambiguation_stats.csv", encoding="utf-8") as fh:
            total = int(next(csv.DictReader(fh))["total"])
    if total is not None and total != sizes["publications"]:
        problems.append(f"disambiguation total {total} is not the "
                        f"{sizes['publications']} publications")
    if not rows:
        problems.append("no unit was scored")
    for row in rows:
        te = float(row["te"])
        if not 0.0 < te <= 1.0 + 1e-6:
            problems.append(f"te={te} outside (0, 1]")
        if crs_only:
            if row["pte"] not in (None, "") or row["rts"] not in (None, ""):
                problems.append("CRS-only run reported VRS results")
            continue
        pte, se = float(row["pte"]), float(row["se"])
        if not te <= pte + 1e-6 <= 1.0 + 2e-6:
            problems.append(f"scores out of order: te={te} pte={pte}")
        if abs(se - te / pte) > 1e-5:
            problems.append(f"se={se} is not te/pte={te / pte}")
        if row["rts"] not in ("constant", "increasing", "decreasing"):
            problems.append(f"unknown returns-to-scale class {row['rts']!r}")
    return problems[:5], len(rows)
