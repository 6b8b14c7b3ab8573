import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def pairs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    yield importlib.import_module("pairs")
    sys.modules.pop("pairs", None)


def _runs(parent, change, failed=(0, 0)):
    """Runs of one metric ``t``, pair i holding ``parent[i]`` and ``change[i]``."""
    runs = []
    for pair, values in enumerate(zip(parent, change), 1):
        for side, value, fails in zip(("parent", "change"), values, failed):
            runs.append({"pair": pair, "side": side, "result": {
                "attempted": 100, "failed": fails, "metrics": {"t": {"value": value}}}})
    return runs


def test_summary_totals_failures_and_applies_the_claim_rule(pairs):
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    # lower in 10 of 10 pairs by 0.2, against a parent interquartile range of 0.055
    lines = pairs.summary(_runs(parent, [p - 0.2 for p in parent], failed=(1, 2)))
    assert lines[0] == "  failed/attempted: parent 10/1000, change 20/1000"
    assert lines[1].endswith("1 [0.9725 .. 1.0275] -> 0.8, lower in 10/10, claim holds")
    # 9 of 10 suffice; 8 do not
    change = [p - 0.2 for p in parent[:9]] + [parent[9] + 0.2]
    assert pairs.summary(_runs(parent, change))[1].endswith("lower in 9/10, claim holds")
    change[8] = parent[8]  # a tie counts for neither side
    assert pairs.summary(_runs(parent, change))[1].endswith("lower in 8/10, claim fails")
    # lower in every pair, but by less than the parent's spread
    assert pairs.summary(_runs(parent, [p - 0.01 for p in parent]))[1].endswith(
        "lower in 10/10, claim fails")


def test_a_set_of_other_trees_is_refused_by_name(pairs):
    trees = {"parent": "aaa", "change": "bbb"}
    bench = {"sets": []}
    target = pairs.find_set(bench, "final", trees)
    assert bench["sets"] == [{"name": "final", "src_trees": trees, "runs": []}]
    assert pairs.find_set(bench, "final", dict(trees)) is target
    with pytest.raises(SystemExit, match="set 'final' holds runs of src trees .*'bbb'.*'ccc'"):
        pairs.find_set(bench, "final", dict(trees, change="ccc"))
    assert pairs.find_set(bench, "other", dict(trees, change="ccc")) is bench["sets"][1]
