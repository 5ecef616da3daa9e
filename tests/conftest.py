from __future__ import annotations

import pytest

from afkit.core import AF

# Six-argument framework used throughout the tests.  Hand-checkable:
# a is unattacked, b/d/e fall to a cascade, c<->d is the one mutual attack,
# f hangs off e.
AF6_NAMES = ["a", "b", "c", "d", "e", "f"]
AF6_ATTACKS = [
    ("a", "b"),
    ("b", "d"),
    ("c", "b"),
    ("c", "d"),
    ("c", "e"),
    ("d", "c"),
    ("d", "e"),
    ("e", "f"),
]


def make_af6() -> AF:
    return AF(AF6_NAMES, AF6_ATTACKS)


@pytest.fixture
def af6() -> AF:
    return make_af6()


def plus_three_cycle(af: AF) -> AF:
    """af joined with a disjoint odd cycle z0 -> z1 -> z2 -> z0, which leaves
    it without a stable extension."""
    names = [a.name for a in af.args]
    cycle = ["z0", "z1", "z2"]
    attacks = [(names[a], names[b]) for a, b in af.attacks]
    attacks += zip(cycle, cycle[1:] + cycle[:1])
    return AF(names + cycle, attacks)


def name_sets(af, extensions) -> set[tuple[str, ...]]:
    """Extensions as a set of sorted name tuples, for order-free comparison."""
    return {tuple(sorted(af.names(e))) for e in extensions}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-print the acceptance verdict lines where capture cannot eat them."""
    import sys

    results = getattr(sys.modules.get("test_acceptance"), "RESULTS", None)
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
