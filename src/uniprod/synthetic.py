"""Seeded synthetic dataset generator.

Produces the five input CSVs for a configurable university system with
the messiness the pipeline must survive: homonym staff members,
affiliation spelling variants, compound and accented surnames, external
co-authors, journals without impact weights, non-counted document
types, publications outside the output window, funding outside the
lagged window, and sub-threshold cells.  Runs are fully deterministic
for a given seed.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

_SURNAMES = [
    "Rossi", "Russo", "Ferrari", "Esposito", "Bianchi", "Romano",
    "Colombo", "Ricci", "Marino", "Greco", "Bruno", "Gallo", "Conti",
    "De Luca", "Mancini", "Costa", "Giordano", "Rizzo", "Lombardi",
    "Moretti", "Barbieri", "Fontana", "Santoro", "Mariani", "Rinaldi",
    "Caruso", "Ferrara", "Galli", "Martini", "Leone", "Longo",
    "Gentile", "Martinelli", "Vitale", "Lombardo", "Serra", "Coppola",
    "De Santis", "D'Angelo", "Marchetti", "Parisi", "Villa", "Conte",
    "Ferraro", "Ferri", "Fabbri", "Bianco", "Marini", "Grasso",
    "Valentini", "Messina", "Sala", "De Angelis", "Gatti", "Pellegrini",
    "Palumbo", "Sanna", "Farina", "Rizzi", "Monti", "Cattaneo",
    "Morelli", "Amato", "Silvestri", "Mazza", "Testa", "Grassi",
    "Pellegrino", "Carbone", "Giuliani", "Benedetti", "Barone",
    "Rossetti", "Caputo", "Montanari", "Guerra", "Palmieri", "Bernardi",
    "Martino", "Fiore", "De Rosa", "Ferretti", "Bellini", "Basile",
    "Riva", "Donati", "Piras", "Vitali", "Battaglia", "Sartori",
    "Neri", "Costantini", "Milani", "Pagano", "Ruggiero", "Sorrentino",
    "D'Amico", "Orlando", "Negri", "Di Stefano", "Nicolò",
    "García-López", "Dell'Orto", "Álvarez", "Del Vecchio",
]

_FIRST_NAMES = [
    "Alessandro", "Andrea", "Anna", "Alberto", "Bruno", "Beatrice",
    "Carlo", "Chiara", "Claudia", "Davide", "Daniela", "Elena",
    "Enrico", "Federica", "Francesco", "Franca", "Federico",
    "Giovanni", "Giulia", "Giorgio", "Ilaria", "Irene", "Laura",
    "Luca", "Lucia", "Lorenzo", "Maria", "Marco", "Marta", "Matteo",
    "Michela", "Nicola", "Nadia", "Paolo", "Paola", "Pietro",
    "Roberto", "Rita", "Sara", "Stefano", "Silvia", "Teresa",
    "Tommaso", "Valeria", "Vittorio",
]

#: disjoint from _SURNAMES so external authors never match staff
_FOREIGN_SURNAMES = [
    "Smith", "Johnson", "Brown", "Müller", "Schmidt", "Dubois",
    "Kowalski", "Novak", "Ivanov", "Petrov", "Andersen", "Nielsen",
    "Laurent", "Moreau", "Schneider", "Fischer", "Tanaka", "Kim",
    "Chen", "Svensson",
]

_CITIES = [
    "Ancona", "Aosta", "Arezzo", "Asti", "Bari", "Belluno", "Bergamo",
    "Bologna", "Bolzano", "Brescia", "Cagliari", "Caserta", "Catania",
    "Chieti", "Como", "Cosenza", "Cremona", "Crotone", "Cuneo", "Enna",
    "Fermo", "Foggia", "Forlì", "Genova", "Gorizia", "Imperia",
    "Isernia", "Latina", "Lecce", "Livorno", "Lodi", "Lucca",
    "Macerata", "Mantova", "Matera", "Milano", "Modena", "Napoli",
    "Novara", "Oristano", "Padova", "Palermo", "Parma", "Pavia",
    "Perugia", "Pesaro", "Pescara", "Piacenza", "Pisa", "Pistoia",
    "Pordenone", "Potenza", "Prato", "Ragusa", "Ravenna", "Rieti",
    "Rimini", "Roma", "Rovigo", "Salerno", "Sassari", "Savona",
    "Siena", "Sondrio", "Taranto", "Terni", "Torino", "Trapani",
    "Trento", "Treviso", "Trieste", "Udine", "Varese", "Venezia",
    "Verbania", "Vercelli", "Verona", "Vicenza", "Viterbo",
]
#: Each university is named after a different city.
MAX_UNIVERSITIES = len(_CITIES)

_PATTERN_TEMPLATES = [
    "University of {city}",
    "Univ. of {city}",
    "UNIV {city}",
    "Università di {city}",
    "Università degli Studi di {city}",
    "{city} University",
]

_RANKS = ("FP", "AP", "RF")
_RANK_WEIGHTS = (0.25, 0.35, 0.40)


def _poisson(rng: random.Random, lam: float) -> int:
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _initials_of(first_names: str) -> list[str]:
    parts = []
    for chunk in first_names.replace("-", " ").split():
        parts.append(chunk[0])
    return parts


def _author_token(rng: random.Random, surname: str, first_names: str) -> str:
    """Render one author as SURNAME,INITIALS with realistic variation."""
    written = surname
    if " " in surname and rng.random() < 0.2:
        written = surname.replace(" ", "")
    if rng.random() < 0.7:
        written = written.upper()
    initials = _initials_of(first_names)
    if len(initials) > 1 and rng.random() < 0.7:
        initials = initials[:1]
    if rng.random() < 0.8:
        part = "".join(f"{ch}." for ch in initials)
    else:
        part = "".join(initials)
    return f"{written},{part}"


def write_synthetic_dataset(
    out_dir: Path,
    seed: int = 7,
    n_areas: int = 9,
    n_universities: int = 60,
    years: tuple[int, ...] = (2001, 2002, 2003),
    pubs_per_staff_year: float = 0.6,
) -> Path:
    """Write the five CSVs under ``out_dir`` and return ``out_dir``."""
    if n_universities > MAX_UNIVERSITIES:
        raise ValueError(
            f"at most {MAX_UNIVERSITIES} universities supported, "
            f"got {n_universities}"
        )
    rng = random.Random(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    years = tuple(sorted(years))

    areas = [f"A{i + 1:02d}" for i in range(n_areas)]
    universities = [f"U{i + 1:02d}" for i in range(n_universities)]
    cities = dict(zip(universities, rng.sample(_CITIES, n_universities)))

    # Affiliation dictionary: 3-5 spelling variants per university.
    affiliation_rows = []
    patterns: dict[str, list[str]] = {}
    for uni in universities:
        chosen = rng.sample(_PATTERN_TEMPLATES,
                            rng.randint(3, len(_PATTERN_TEMPLATES) - 1))
        variants = [t.format(city=cities[uni]) for t in chosen]
        patterns[uni] = variants
        affiliation_rows += [(v, uni) for v in variants]

    by_initial: dict[str, list[str]] = {}
    for name in _FIRST_NAMES:
        by_initial.setdefault(name[0], []).append(name)

    def pick_first_names() -> str:
        name = rng.choice(_FIRST_NAMES)
        if rng.random() < 0.2:
            other = rng.choice(_FIRST_NAMES)
            if other != name:
                name = f"{name} {other}"
        return name

    # Staff: most cells carry 4-28 members, a few stay below the
    # minimum-staff threshold on purpose.
    staff_rows = []
    cell_staff: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    active_cells: list[tuple[str, str]] = []
    staff_seq = 0
    for uni in universities:
        uni_areas = rng.sample(
            areas, rng.randint(min(3, n_areas), min(7, n_areas)))
        for area in sorted(uni_areas):
            size = rng.randint(1, 3) if rng.random() < 0.08 else rng.randint(4, 28)
            members = []
            for _ in range(size):
                staff_seq += 1
                surname = rng.choice(_SURNAMES)
                first = pick_first_names()
                rank = rng.choices(_RANKS, weights=_RANK_WEIGHTS)[0]
                year_from = rng.randint(1985, min(years) - 1)
                if rng.random() < 0.05:
                    year_to = rng.randint(min(years) - 1, max(years))
                else:
                    year_to = rng.randint(max(years) + 1, max(years) + 7)
                staff_id = f"S{staff_seq:05d}"
                staff_rows.append((staff_id, surname, first, rank, uni,
                                   area, year_from, year_to))
                members.append((staff_id, surname, first))
            # Plant a homonym: same surname, same first initial,
            # different person, in the same cell.
            if size >= 6 and rng.random() < 0.25:
                _, surname, first = rng.choice(members)
                pool = [n for n in by_initial.get(first[0], [])
                        if n != first.split()[0]]
                if pool:
                    staff_seq += 1
                    twin = f"S{staff_seq:05d}"
                    twin_first = rng.choice(pool)
                    rank = rng.choices(_RANKS, weights=_RANK_WEIGHTS)[0]
                    staff_rows.append((twin, surname, twin_first, rank,
                                       uni, area, 1985, max(years) + 5))
                    members.append((twin, surname, twin_first))
            cell_staff[(uni, area)] = members
            active_cells.append((uni, area))

    # Journals: some never appear in the weight table.
    journals = [f"J{i + 1:03d}" for i in range(250)]
    weightless = set(rng.sample(journals, 12))
    journal_rows = []
    for journal in journals:
        if journal in weightless:
            continue
        for year in years:
            weight = min(20.0, max(0.05, rng.lognormvariate(0.0, 0.7)))
            journal_rows.append((journal, year, round(weight, 3)))

    # Funding: rows inside the one-year-lagged window plus decoys outside it.
    funding_rows = []
    funding_years = sorted({y - 1 for y in years} | {max(years)})
    for uni, area in active_cells:
        for year in funding_years:
            if rng.random() < 0.55:
                funding_rows.append((uni, area, year,
                                     round(rng.uniform(0.0, 500.0), 1)))

    # Publications.
    pub_rows = []
    pub_seq = 0
    area_unis: dict[str, list[str]] = {}
    for uni, area in active_cells:
        area_unis.setdefault(area, []).append(uni)
    for uni, area in active_cells:
        members = cell_staff[(uni, area)]
        for year in years:
            for _ in range(_poisson(rng, pubs_per_staff_year * len(members))):
                pub_seq += 1
                pub_year = year
                if rng.random() < 0.05:
                    pub_year = rng.choice((min(years) - 1, max(years) + 1))
                n_auth = max(1, min(len(members), 1 + _poisson(rng, 1.2)))
                chosen = rng.sample(members, n_auth)
                tokens = [_author_token(rng, s, f) for (_, s, f) in chosen]
                affs = [rng.choice(patterns[uni])]
                if rng.random() < 0.10:
                    partner = rng.choice(area_unis[area])
                    if partner != uni:
                        other = cell_staff[(partner, area)]
                        for _, s, f in rng.sample(
                                other, min(len(other), rng.randint(1, 2))):
                            tokens.append(_author_token(rng, s, f))
                        affs.append(rng.choice(patterns[partner]))
                if rng.random() < 0.25:
                    for _ in range(rng.randint(1, 2)):
                        tokens.append(_author_token(
                            rng, rng.choice(_FOREIGN_SURNAMES),
                            rng.choice(_FIRST_NAMES)))
                if rng.random() < 0.02:
                    # Only outside authors: the discarded category.
                    tokens = [_author_token(rng, rng.choice(_FOREIGN_SURNAMES),
                                            rng.choice(_FIRST_NAMES))]
                if rng.random() < 0.08:
                    affs.append(f"Institute for Advanced Studies "
                                f"{rng.randint(1, 99)}")
                roll = rng.random()
                doc_type = ("article" if roll < 0.80
                            else "review" if roll < 0.92 else "other")
                rng.shuffle(tokens)
                pub_rows.append((
                    f"P{pub_seq:06d}", pub_year, doc_type,
                    rng.choice(journals), ";".join(tokens), ";".join(affs),
                ))

    def dump(name: str, header: tuple[str, ...], rows) -> None:
        with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    dump("staff.csv",
         ("staff_id", "surname", "first_names", "rank", "university_id",
          "area_id", "year_from", "year_to"), staff_rows)
    dump("affiliations.csv", ("raw_pattern", "university_id"),
         affiliation_rows)
    dump("journals.csv", ("journal_id", "year", "impact_weight"),
         journal_rows)
    dump("funding.csv", ("university_id", "area_id", "year", "prin_keur"),
         funding_rows)
    dump("publications.csv",
         ("pub_id", "year", "doc_type", "journal_id", "authors",
          "raw_affiliations"), pub_rows)
    return out_dir
