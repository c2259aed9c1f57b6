"""The acceptance runner: one place times a criterion and applies its budget."""

import types

import pytest

from partcat import acceptance


def _clock(*readings):
    """A stand-in for the time module whose monotonic clock gives the readings
    in turn; it has no wall clock, so a criterion timed by one fails."""
    return types.SimpleNamespace(perf_counter=iter(readings).__next__)


def test_a_criterion_over_its_budget_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "time", _clock(0.0, 120.5))
    result = acceptance.criterion_3()
    assert not result.passed
    assert result.details == ["runtime 120.5s exceeds the 120s budget"]


def test_a_criterion_within_its_budget_passes(monkeypatch):
    monkeypatch.setattr(acceptance, "time", _clock(0.0, 119.5))
    result = acceptance.criterion_3()
    assert result.passed and result.details == []


def _never_run(*args, **kwargs):
    raise AssertionError("a criterion ran")


def test_a_negative_seed_is_refused_before_any_criterion(monkeypatch):
    # no criterion samples: the runner takes no seed at all
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (_never_run,) * 10)
    with pytest.raises(TypeError, match="seed"):
        acceptance.run_all(seed=-1)


def test_no_budget_means_no_runtime_gate(monkeypatch):
    monkeypatch.setattr(acceptance, "time", _clock(1e9))
    result = acceptance._result(7, "title", 0.0, [])
    assert result.passed and result.details == []
    assert result.seconds == 1e9
