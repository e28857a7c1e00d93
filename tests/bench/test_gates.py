"""The gate registry against the committed ``BENCH_*.json`` baselines."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.gates import (
    FLAG, FLOOR, NAMES, PIN, RELATIVE, alternating_samples, harness,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _baseline(name):
    return json.loads((REPO_ROOT / harness(name).baseline).read_text(encoding="utf-8"))


def _first_match(payload, path):
    """The first concrete path ``path`` matches, and the key ``*`` took."""
    parts, key, node = [], "", payload
    for part in path.split("."):
        if part == "*":
            part = key = "0" if isinstance(node, list) else next(iter(node))
        node = node[int(part)] if isinstance(node, list) else node[part]
        parts.append(part)
    return parts, key


def _get(payload, parts):
    for part in parts:
        payload = payload[int(part)] if isinstance(payload, list) else payload[part]
    return payload


def _set(payload, parts, value):
    _get(payload, parts[:-1])[parts[-1]] = value


def _push(gate, current, baseline, tolerance):
    """Move ``gate``'s first entry just past its threshold."""
    parts, key = _first_match(baseline, gate.path)
    value = _get(current, parts)
    if gate.kind == FLOOR:
        floor = gate.floor
        if isinstance(floor, str):
            floor = _get(current, parts[:-1] + [floor])
        if isinstance(value, int) and isinstance(floor, int):
            below = floor - 1
        else:
            below = floor / (1.0 + gate.slack) * (1.0 - 1e-6)
        # Both sides, so no baseline-relative row on the path trips too.
        _set(current, parts, below)
        _set(baseline, parts, below)
    elif gate.kind == RELATIVE:
        bound = 1.0 + (gate.tolerance if gate.tolerance is not None else tolerance)
        factor = bound * (1.0 + 1e-6)
        _set(baseline, parts, value / factor if gate.lower_is_better else value * factor)
    elif gate.kind == PIN:
        _set(current, parts, value + "-changed" if isinstance(value, str) else value + 1)
    else:
        assert gate.kind == FLAG
        _set(current, parts, False)
    return ".".join(parts), gate.label.format(key=key)


def _rows():
    for name in NAMES:
        for index, gate in enumerate(harness(name).gates):
            yield pytest.param(name, index, id=f"{name}-{index}-{gate.path}")


def test_registry_matches_the_committed_baselines():
    assert sorted(harness(name).baseline for name in NAMES) == sorted(
        path.name for path in REPO_ROOT.glob("BENCH_*.json")
    )
    assert [harness(name).name for name in NAMES] == list(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_committed_baseline_passes_its_gate(name):
    baseline = _baseline(name)
    assert harness(name).check(copy.deepcopy(baseline), baseline) == []


@pytest.mark.parametrize("name, index", list(_rows()))
def test_row_just_past_its_threshold_fails_alone(name, index):
    entry = harness(name)
    gate = entry.gates[index]
    baseline = _baseline(name)
    current = copy.deepcopy(baseline)
    where, label = _push(gate, current, baseline, entry.tolerance)
    failures = entry.check(current, baseline)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{label}: {where}"), failures


def test_unknown_harness_is_rejected():
    with pytest.raises(KeyError):
        harness("exp1")


def test_sampler_alternates_legs_and_warms_each_timed_call():
    calls = []
    legs = [lambda: calls.append("a") or "A", lambda: calls.append("b") or "B"]
    samples = alternating_samples(legs, 2)
    assert calls == ["a", "a", "b", "b", "a", "a", "b", "b"]
    assert [[value for _, value in leg] for leg in samples] == [["A", "A"], ["B", "B"]]
    assert all(seconds >= 0.0 for leg in samples for seconds, _ in leg)


def test_sampler_gives_each_call_a_fresh_setup():
    made = []

    def setup():
        made.append(len(made))
        return made[-1]

    samples = alternating_samples([lambda arg: arg], 3, setups=[setup], warmup=False)
    assert [value for _, value in samples[0]] == [0, 1, 2]
