"""The MELVQ_THREADS worker cap."""

from __future__ import annotations

import pytest

from melvq.workers import MAX_THREADS, THREADS_ENV_VAR, worker_count


@pytest.mark.parametrize("value, expected", [("1", 1), ("3", 3), ("0", 1), ("-5", 1),
                                             (str(MAX_THREADS), MAX_THREADS),
                                             (str(10 ** 9), MAX_THREADS)])
def test_worker_count_clamps_the_variable(monkeypatch, value, expected):
    # only the count is computed; no pool of that size is started
    monkeypatch.setenv(THREADS_ENV_VAR, value)
    assert worker_count() == expected


def test_worker_count_rejects_a_non_integer(monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "many")
    with pytest.raises(ValueError):
        worker_count()


def test_worker_count_default_is_at_most_four(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert 1 <= worker_count() <= 4
