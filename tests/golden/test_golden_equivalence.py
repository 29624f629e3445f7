"""Golden-run equivalence: the optimized hot path changes *nothing*.

The hot-path overhaul (flat-list reliability fast path, de-numpy'd
chip/mapping/block state, inlined address arithmetic, vectorized trace
fitting) is only admissible because these tests prove the simulator
still produces byte-for-byte the numbers the pre-optimization code
produced: every aggregate of every replay in the golden matrix — all
three FTLs, with and without the reliability stack (disturb on, disturb
off, and the uniform null model), the two-phase re-read harness, and a
timed-mode run — compared with exact ``==`` against the committed
``golden_runs.json``.

Regenerate the goldens (``python tests/golden/capture.py``) only when a
change is *meant* to alter simulation results.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.capture import GOLDEN_PATH, capture, golden_specs


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


@pytest.fixture(scope="module")
def current() -> dict:
    return capture()["runs"]


def _assert_equal(path: str, expected, actual) -> None:
    """Exact recursive comparison with a useful failure path."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected dict, got {type(actual)}"
        assert sorted(expected) == sorted(actual), (
            f"{path}: key sets differ: {sorted(expected)} != {sorted(actual)}"
        )
        for key in expected:
            _assert_equal(f"{path}.{key}", expected[key], actual[key])
    elif isinstance(expected, list):
        assert len(expected) == len(actual), f"{path}: length differs"
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_equal(f"{path}[{i}]", e, a)
    else:
        # Exact equality, floats included: the optimized path must
        # perform the same IEEE operations in the same order.
        assert expected == actual, f"{path}: {expected!r} != {actual!r}"


#: capture() entries beyond the golden_specs() matrix: the timed overlay on
#: one chip, on 4 chips / 2 channels, and on 2 planes per chip (open
#: and closed loop).
TIMED_RUNS = {
    "conventional/timed",
    "conventional/timed-multichip",
    "conventional/timed-planes",
    "conventional/timed-closed",
}


def test_golden_matrix_is_complete(golden):
    """Every spec in the capture matrix has a committed golden."""
    expected = set(golden_specs()) | TIMED_RUNS
    assert expected == set(golden)


@pytest.mark.parametrize("name", sorted(set(golden_specs()) | TIMED_RUNS))
def test_golden_equivalence(golden, current, name):
    """The optimized simulator reproduces the pre-optimization numbers."""
    _assert_equal(name, golden[name], current[name])
