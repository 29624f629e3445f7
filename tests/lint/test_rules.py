"""Per-rule failing fixtures + clean passes over the real tree.

Each rule gets at least one minimal snippet that must trip it (the
acceptance criterion: every rule provably fires) and, where behavior
is subtle, a near-miss that must stay clean.
"""

from pathlib import Path

import pytest

import repro
from repro.errors import ConfigError
from repro.lint import run_lint
from repro.lint.engine import default_target

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_snippet(tmp_path, code, rules=None, name="snippet.py"):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(code)
    return run_lint([target], rules=rules)


def rule_ids(report):
    return [finding.rule for finding in report.findings]


class TestDet001:
    def test_global_state_call_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "import random\nx = random.random()\n")
        assert rule_ids(report) == ["DET001"]
        assert report.exit_code == 1

    def test_from_import_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "from random import shuffle\n")
        assert "DET001" in rule_ids(report)

    def test_unseeded_default_rng_fires(self, tmp_path):
        code = "import numpy as np\nrng = np.random.default_rng()\n"
        report = lint_snippet(tmp_path, code)
        assert rule_ids(report) == ["DET001"]
        assert "unseeded" in report.findings[0].message

    def test_legacy_numpy_api_fires(self, tmp_path):
        code = "import numpy as np\nx = np.random.rand(4)\n"
        assert rule_ids(lint_snippet(tmp_path, code)) == ["DET001"]

    def test_seeded_streams_are_clean(self, tmp_path):
        code = (
            "import random\n"
            "import numpy as np\n"
            "r = random.Random(42)\n"
            "rng = np.random.default_rng(7)\n"
        )
        assert lint_snippet(tmp_path, code).findings == []

    def test_pragma_suppresses_the_line_only(self, tmp_path):
        code = (
            "import random\n"
            "a = random.random()  # repro-lint: disable=DET001\n"
            "b = random.random()\n"
        )
        report = lint_snippet(tmp_path, code)
        assert [f.line for f in report.findings] == [3]


class TestDet002:
    def test_wall_clock_call_fires(self, tmp_path):
        report = lint_snippet(tmp_path, "import time\nt = time.time()\n")
        assert rule_ids(report) == ["DET002"]

    def test_from_import_reference_fires(self, tmp_path):
        code = "from time import perf_counter\nt = perf_counter()\n"
        assert "DET002" in rule_ids(lint_snippet(tmp_path, code))

    def test_datetime_now_fires(self, tmp_path):
        code = "from datetime import datetime\nstamp = datetime.now()\n"
        assert "DET002" in rule_ids(lint_snippet(tmp_path, code))

    def test_bench_perf_is_allowlisted(self, tmp_path):
        code = "import time\nt = time.perf_counter()\n"
        report = lint_snippet(tmp_path, code, name="bench/perf.py")
        assert report.findings == []


class TestDet003:
    def test_for_append_over_set_fires(self, tmp_path):
        code = (
            "def f(items):\n"
            "    bag = set(items)\n"
            "    out = []\n"
            "    for item in bag:\n"
            "        out.append(item)\n"
            "    return out\n"
        )
        report = lint_snippet(tmp_path, code)
        assert rule_ids(report) == ["DET003"]
        assert report.findings[0].line == 4

    def test_next_iter_fires(self, tmp_path):
        code = "def f(bag: set[int]):\n    return next(iter(bag))\n"
        assert rule_ids(lint_snippet(tmp_path, code)) == ["DET003"]

    def test_list_of_dict_view_subtraction_fires(self, tmp_path):
        code = "def f(a: dict, b: dict):\n    return list(a.keys() - b)\n"
        assert rule_ids(lint_snippet(tmp_path, code)) == ["DET003"]

    def test_self_attribute_set_fires(self, tmp_path):
        code = (
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self.free: set[int] = set()\n"
            "    def drain(self):\n"
            "        return [x for x in self.free]\n"
        )
        assert rule_ids(lint_snippet(tmp_path, code)) == ["DET003"]

    def test_sorted_wrapping_is_clean(self, tmp_path):
        code = (
            "def f(items):\n"
            "    bag = set(items)\n"
            "    out = []\n"
            "    for item in sorted(bag):\n"
            "        out.append(item)\n"
            "    return out, sorted(bag), min(bag), len(bag)\n"
        )
        assert lint_snippet(tmp_path, code).findings == []

    def test_membership_and_mutation_are_clean(self, tmp_path):
        code = (
            "def f(items):\n"
            "    seen = set()\n"
            "    for item in items:\n"
            "        if item not in seen:\n"
            "            seen.add(item)\n"
            "    return len(seen)\n"
        )
        assert lint_snippet(tmp_path, code).findings == []


SPEC_FIXTURE = """\
from dataclasses import dataclass


@dataclass
class Section:
    knobs: dict


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    section: Section
"""


class TestSpec001:
    def test_unfrozen_and_unserializable_nested_section_fires(self, tmp_path):
        report = lint_snippet(tmp_path, SPEC_FIXTURE)
        assert rule_ids(report) == ["SPEC001", "SPEC001"]
        messages = " ".join(f.message for f in report.findings)
        assert "frozen=True" in messages
        assert "dict" in messages

    def test_frozen_serializable_closure_is_clean(self, tmp_path):
        code = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Section:\n"
            "    values: tuple[float, ...]\n"
            "@dataclass(frozen=True)\n"
            "class ScenarioSpec:\n"
            "    name: str\n"
            "    section: Section | None\n"
        )
        assert lint_snippet(tmp_path, code).findings == []


REG_FIXTURE = """\
class BaseFTL:
    pass


class AlphaFTL(BaseFTL):
    pass


class BetaFTL(BaseFTL):
    pass


def _make_alpha(device):
    return AlphaFTL()


FTL_CLASSES = {"alpha": AlphaFTL}
FTL_FACTORIES = {"alpha": _make_alpha, "gamma": _make_alpha}
"""


class TestReg001:
    def test_registry_disagreements_fire(self, tmp_path):
        report = lint_snippet(tmp_path, REG_FIXTURE)
        messages = " ".join(f.message for f in report.findings)
        assert rule_ids(report) == ["REG001", "REG001"]
        assert "'gamma' is in FTL_FACTORIES but missing" in messages
        assert "BetaFTL subclasses BaseFTL but is not registered" in messages

    def test_literal_reliability_tuple_must_cover_hosts(self, tmp_path):
        code = (
            "class ReliabilityHost:\n"
            "    pass\n"
            "class BaseFTL(ReliabilityHost):\n"
            "    pass\n"
            "class AlphaFTL(BaseFTL):\n"
            "    pass\n"
            "FTL_CLASSES = {'alpha': AlphaFTL}\n"
            "FTL_FACTORIES = {'alpha': AlphaFTL}\n"
            "RELIABILITY_FTLS = ()\n"
        )
        report = lint_snippet(tmp_path, code)
        assert "REG001" in rule_ids(report)
        assert any("RELIABILITY_FTLS" in f.message for f in report.findings)

    def test_cli_choices_must_match_registry(self, tmp_path):
        (tmp_path / "registry.py").write_text(
            "class BaseFTL:\n"
            "    pass\n"
            "class AlphaFTL(BaseFTL):\n"
            "    pass\n"
            "FTL_CLASSES = {'alpha': AlphaFTL}\n"
            "FTL_FACTORIES = {'alpha': AlphaFTL}\n"
        )
        (tmp_path / "cli.py").write_text(
            "def build(parser):\n"
            "    parser.add_argument('--ftl', choices=['alpha', 'stale'])\n"
        )
        report = run_lint([tmp_path])
        assert "REG001" in rule_ids(report)
        assert any("'stale'" in f.message for f in report.findings)


OPLOG_FIXTURE = """\
class NandChip:
    def read(self, ppn):
        self.stats.read_us += 1.0

    def shortcut_read(self, ppn):
        self.stats.read_us += 1.0
"""


class TestOplog001:
    def test_time_accumulation_outside_entry_points_fires(self, tmp_path):
        report = lint_snippet(tmp_path, OPLOG_FIXTURE)
        assert rule_ids(report) == ["OPLOG001"]
        assert "shortcut_read" in report.findings[0].message
        assert report.findings[0].line == 6

    def test_direct_oplog_access_fires(self, tmp_path):
        code = "def peek(device):\n    return device.oplog[-1]\n"
        report = lint_snippet(tmp_path, code)
        assert rule_ids(report) == ["OPLOG001"]

    def test_entry_points_and_init_are_clean(self, tmp_path):
        code = (
            "class NandDevice:\n"
            "    def __init__(self):\n"
            "        self.oplog = None\n"
            "    def note_retry(self, us):\n"
            "        if self.oplog is not None:\n"
            "            self.oplog.append((0, 0.0, us))\n"
        )
        assert lint_snippet(tmp_path, code).findings == []


class TestEngine:
    def test_unknown_rule_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown lint rule"):
            lint_snippet(tmp_path, "x = 1\n", rules=["NOPE"])

    def test_syntax_error_becomes_a_parse_finding(self, tmp_path):
        report = lint_snippet(tmp_path, "def broken(:\n")
        assert rule_ids(report) == ["PARSE"]
        assert report.exit_code == 1

    def test_missing_path_is_a_config_error(self):
        with pytest.raises(ConfigError, match="does not exist"):
            run_lint([str(REPO_ROOT / "no" / "such" / "dir")])

    def test_rule_selection_restricts_the_run(self, tmp_path):
        code = "import random\nimport time\nrandom.random()\ntime.time()\n"
        report = lint_snippet(tmp_path, code, rules=["DET002"])
        assert rule_ids(report) == ["DET002"]
        assert report.rules_run == ("DET002",)


@pytest.fixture(scope="module")
def default_report():
    """One lint pass over the default target, shared by the real-tree
    checks below (each pass re-parses the whole package)."""
    return run_lint()


class TestRealTree:
    def test_shipped_package_is_clean(self, default_report):
        # The default target is this checkout's package tree, so the
        # shared default pass is the shipped-tree pass.
        assert default_target() == (REPO_ROOT / "src" / "repro").resolve()
        assert default_report.findings == [], default_report.render_text()
        assert default_report.files_checked > 50

    def test_default_target_is_the_installed_package(self, default_report):
        assert default_target() == Path(repro.__file__).resolve().parent
        assert default_report.findings == [], default_report.render_text()

    def test_tests_tree_passes_the_determinism_self_check(self):
        report = run_lint([REPO_ROOT / "tests"])
        assert report.findings == [], report.render_text()
