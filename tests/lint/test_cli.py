"""CLI surface of ``repro lint``: exit codes, --rule, --format, help."""

import json

import pytest

import repro.cli
import repro.lint
from repro.cli import main


@pytest.fixture(scope="module")
def shipped_report():
    """One lint pass over the shipped tree, shared by this module."""
    return repro.lint.run_lint()


@pytest.fixture
def shared_pass(shipped_report, monkeypatch):
    """Serve the CLI's bare ``repro lint`` from :func:`shipped_report`:
    parsing, rendering and the exit code still run per test."""

    def run_lint(paths=None, rules=None):
        assert paths is None and rules is None
        return shipped_report

    monkeypatch.setattr(repro.lint, "run_lint", run_lint)


@pytest.fixture
def dirty_file(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text("import random\nimport time\nrandom.random()\ntime.time()\n")
    return target


class TestLintCommand:
    def test_shipped_tree_exits_zero(self, shared_pass, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_one_with_locations(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert f"{dirty_file}:3: DET001" in out
        assert f"{dirty_file}:4: DET002" in out

    def test_rule_flag_restricts_and_repeats(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file), "--rule", "DET002"]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out and "DET001" not in out

        assert (
            main(
                ["lint", str(dirty_file), "--rule", "DET001", "--rule", "DET002"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "DET001" in out and "DET002" in out

    def test_unknown_rule_exits_two(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file), "--rule", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert "unknown lint rule" in err

    def test_json_format_is_machine_readable(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        rules_hit = {f["rule"] for f in payload["findings"]}
        assert rules_hit == {"DET001", "DET002"}
        assert set(payload["rules"]) == {
            "DET001",
            "DET002",
            "DET003",
            "SPEC001",
            "REG001",
            "OPLOG001",
        }

    def test_json_clean_run(self, shared_pass, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestHelpParity:
    def test_module_docstring_documents_the_subcommand(self):
        assert "``lint" in repro.cli.__doc__

    def test_help_text_lists_lint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "lint" in capsys.readouterr().out

    def test_lint_help_documents_flags_and_pragma(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--rule" in out
        assert "--format" in out
        assert "repro-lint: disable" in out
