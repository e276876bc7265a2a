"""Every pin of scripts/kernel_pins.py's registry against tests/data/pins.json.

A pin is the sha256 of float.hex of a kernel's, a route's or an engine
caller's results on a grid that the script states.  The bits must not
depend on what ran before, so each pin is made in a fresh process, the
branch-cut pin also with its grid reversed, and the route and engine pins
also here, after every earlier test of the session.
"""

from __future__ import annotations

import json

import pytest

from conftest import load_by_path, run_fresh

KERNEL_PINS = load_by_path("scripts/kernel_pins.py", "kernel_pins")
PINNED = json.loads(KERNEL_PINS.PINS_FILE.read_text())
ROUTES_AND_ENGINES = ["direct", "momentum", "series", *dict(KERNEL_PINS.ENGINE_CASES)]


def test_registry_names_equal_the_file_keys():
    # in the registry's order, which --write keeps
    assert list(PINNED) == list(KERNEL_PINS.PINS)
    assert len(PINNED) == 18


@pytest.mark.parametrize("name", list(KERNEL_PINS.PINS))
def test_pin_matches_in_a_fresh_process(name):
    out = run_fresh(f"print(bench.digest(bench.PINS[{name!r}]()))\n")
    assert out.strip() == PINNED[name]


def test_branch_pin_matches_with_its_grid_reversed():
    # a fresh process, so the grid fills and extends the rules in reverse
    out = run_fresh("print(bench.digest(bench.branch_lines(bench.BRANCH_CELLS[::-1])))\n")
    assert out.strip() == PINNED["branch_integral"]


@pytest.mark.parametrize("name", ROUTES_AND_ENGINES)
def test_route_and_engine_pins_match_after_earlier_calls(name):
    assert KERNEL_PINS.digest(KERNEL_PINS.PINS[name]()) == PINNED[name]
