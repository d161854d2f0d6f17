"""Acceptance suite: drives the golden checks of `genfermat reproduce-paper`,
printing one pass/fail line per check on the real terminal and enforcing
the time budgets of `reproduce.BUDGETS` and `reproduce.RUN_BUDGET`."""

import pytest

from genfermat import enumeration, reproduce

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


def test_rank_sweep_walks_cells_below_d(monkeypatch):
    # The bounds prune every m < d cell before the walk, so a kernel that
    # the walk finds at (d=2, p=2, n=3, m=1) is seen by the unpruned pass only.
    walk = enumeration._leaves

    def leaky(packed, k, d, share):
        yield from walk(packed, k, d, share)
        if (packed.p, packed.m, k, d) == (2, 1, 2, 2):
            yield ((1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1))

    monkeypatch.setattr(enumeration, "_leaves", leaky)
    ok, detail = reproduce.check_rank_two_quotients_empty()
    assert not ok
    assert detail == "free quotient of rank m < d at (d=2, p=2, n=3, m=1)"
