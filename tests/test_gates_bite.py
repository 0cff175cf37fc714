"""The acceptance gates bite: C01, C03 and C05, each run under a fault
planted in the package, report FAIL.  Each gate runs with a recording
``gate`` in place of the fixture, so its verdict is read, not raised.
An exception from the package is not a FAIL: it fails the test."""

import pytest

from uniprod import dea, lp

from . import test_acceptance as acceptance


def verdicts(test, **kwargs):
    """The verdict of every criterion that the gate ``test`` reports."""
    seen = []
    test(gate=lambda criterion, ok, detail="": seen.append(ok), **kwargs)
    return seen


def test_c01_fails_with_a_loose_feasibility_tolerance(monkeypatch):
    monkeypatch.setattr(lp, "FEASIBILITY_TOL", 0.5)
    assert verdicts(acceptance.test_c01_simplex_matches_vertex_enumeration,
                    monkeypatch=monkeypatch) == [False]


def _vrs_from_crs(monkeypatch):
    """``_phis`` answers VRS with the CRS records."""
    phis = dea._phis
    monkeypatch.setattr(dea, "_phis", lambda problem, regime, units=None: phis(
        problem, dea.CRS if regime == dea.VRS else regime, units))


def _no_scale_inefficiency(monkeypatch):
    """``decompose`` takes every unit for scale-efficient, so it reads
    phi_nirs = phi_vrs and classes every increasing-returns unit
    decreasing."""
    monkeypatch.setattr(dea, "_scale_inefficient", lambda phi_crs, phi_vrs: False)


@pytest.mark.parametrize("plant", [_vrs_from_crs, _no_scale_inefficiency])
def test_c03_fails_on_a_wrong_decomposition(plant, monkeypatch):
    plant(monkeypatch)
    assert verdicts(acceptance.test_c03_decomposition_invariants) == [False]


def test_c05_fails_when_every_factor_is_seeded(monkeypatch):
    """``drop_input`` seeds every factor on record, whatever its dual on
    the dropped row."""
    drop_input = dea.DeaProblem.drop_input

    def seeding_every_factor(problem, label):
        smaller = drop_input(problem, label)
        for regime, records in problem._solved.items():
            for k, rec in records.items():
                smaller._solved[regime].setdefault(k, dea._Solved(rec.phi, None))
        return smaller

    monkeypatch.setattr(dea.DeaProblem, "drop_input", seeding_every_factor)
    assert verdicts(acceptance.test_c05_dropping_an_input_never_helps) == [False]
