"""Acceptance suite: drives the golden checks of `genfermat reproduce-paper`,
printing one pass/fail line per check on the real terminal and enforcing
the time budgets of `reproduce.BUDGETS` and `reproduce.RUN_BUDGET`."""

import pytest

from genfermat import reproduce

NAMES = tuple(name for name, _ in reproduce.CHECKS)


@pytest.fixture(scope="module")
def results():
    """Check results by name, filled by `seconds`."""
    return {}


def seconds(results, names):
    """Time taken by the named checks; each check runs once per module."""
    for name in names:
        if name not in results:
            results[name] = reproduce.run_check(name, dict(reproduce.CHECKS)[name])
    return sum(results[name]["elapsed_ms"] for name in names) / 1000


@pytest.mark.parametrize("name", NAMES)
def test_check(name, results, capsys):
    t = seconds(results, (name,))
    r = results[name]
    with capsys.disabled():
        print(f"[{'PASS' if r['ok'] else 'FAIL'}] {name}: {r['detail']} ({t:.2f}s)")
    assert r["ok"], r["detail"]
    for names, budget in reproduce.BUDGETS.items():
        if name in names:
            assert seconds(results, names) < budget, names


def test_whole_run_budget(results):
    assert seconds(results, NAMES) < reproduce.RUN_BUDGET
