"""End-to-end tests for the ``repro lint`` CLI subcommand.

Covers the exit-code contract (0 clean / 1 violations / 2 usage error),
both output formats, rule listing and selection, and — the acceptance
gate — that the shipped tree itself lints clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_offender(tmp_path: Path) -> Path:
    # Path fragments opt the file into the path-scoped rules.
    target = tmp_path / "src" / "repro" / "core" / "offender.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        textwrap.dedent(
            """
            import numpy as np

            _CACHE = {}

            def draw(key):
                _CACHE[key] = np.random.rand(3)
            """
        ),
        encoding="utf-8",
    )
    return target


def test_shipped_tree_is_clean(capsys):
    exit_code = repro_main(["lint", str(REPO_ROOT / "src")])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "no violations" in captured.out


def test_seeded_violations_exit_nonzero(tmp_path, capsys):
    target = write_offender(tmp_path)
    exit_code = repro_main(["lint", str(tmp_path)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "RPR001" in captured.out
    assert "RPR003" in captured.out
    # Findings are reported as path:line:col.
    assert f"{target}:7" in captured.out


def test_json_format(tmp_path, capsys):
    write_offender(tmp_path)
    exit_code = repro_main(["lint", "--format", "json", str(tmp_path)])
    captured = capsys.readouterr()
    assert exit_code == 1
    payload = json.loads(captured.out)
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert payload["counts_by_rule"]["RPR001"] == 1
    rule_ids = {v["rule"] for v in payload["violations"]}
    assert rule_ids == {"RPR001", "RPR003"}
    assert all({"path", "line", "col", "message"} <= v.keys() for v in payload["violations"])


def test_select_limits_rules(tmp_path, capsys):
    write_offender(tmp_path)
    exit_code = repro_main(["lint", "--select", "RPR001", str(tmp_path)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "RPR001" in captured.out
    assert "RPR003" not in captured.out


def test_unknown_select_is_usage_error(tmp_path, capsys):
    # RPR004 was retired into RPR007 and is unknown like any other ID.
    for rule_id in ("RPR999", "RPR004"):
        exit_code = repro_main(["lint", "--select", rule_id, str(tmp_path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert rule_id in captured.err


def test_missing_path_is_usage_error(tmp_path, capsys):
    exit_code = repro_main(["lint", str(tmp_path / "nope")])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "nope" in captured.err


def test_list_rules(capsys):
    exit_code = repro_main(["lint", "--list-rules"])
    captured = capsys.readouterr()
    assert exit_code == 0
    listed = {line.split()[0] for line in captured.out.splitlines() if line.strip()}
    # RPR004 was retired into RPR007.
    assert listed == {f"RPR{index:03d}" for index in range(1, 16)} - {"RPR004"}


def test_explain_prints_guide(capsys):
    exit_code = repro_main(["lint", "--explain", "RPR015"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert captured.out.startswith("RPR015")
    assert "Fires (true positive):" in captured.out
    assert "Does not fire" in captured.out
    assert "Sanctioned escapes:" in captured.out


def test_explain_is_case_insensitive(capsys):
    exit_code = repro_main(["lint", "--explain", "rpr006"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert captured.out.startswith("RPR006")


def test_explain_unknown_rule_is_usage_error(capsys):
    exit_code = repro_main(["lint", "--explain", "RPR999"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "RPR999" in captured.err


def test_every_shipped_rule_has_a_guide():
    from repro.lint.explain import RULE_GUIDES
    from repro.lint.project_rules import ALL_PROJECT_RULES
    from repro.lint.rules import ALL_RULES

    shipped = {rule.rule_id for rule in (*ALL_RULES, *ALL_PROJECT_RULES)}
    assert shipped <= set(RULE_GUIDES), "every rule needs an --explain guide"


def test_sarif_full_description_matches_explain_guide(tmp_path, capsys):
    # Single source of truth: the SARIF fullDescription is the guide
    # description, so --explain and code scanning cannot drift.
    from repro.lint.explain import RULE_GUIDES

    (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
    repro_main(["lint", "--format", "sarif", str(tmp_path)])
    sarif = json.loads(capsys.readouterr().out)
    by_id = {
        rule["id"]: rule for rule in sarif["runs"][0]["tool"]["driver"]["rules"]
    }
    for rule_id, guide in RULE_GUIDES.items():
        assert by_id[rule_id]["fullDescription"]["text"] == guide.description


@pytest.mark.parametrize("flag", ["--output", "--write-baseline"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, flag):
    (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
    target = tmp_path / "missing" / "out.txt"
    exit_code = repro_main(["lint", flag, str(target), str(tmp_path)])
    captured = capsys.readouterr()
    # An I/O error is a usage error (2), not "violations found" (1).
    assert exit_code == 2
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert not target.exists()


def test_standalone_module_entrypoint(tmp_path, capsys):
    # ``python -m repro.lint`` shares the implementation with the
    # subcommand; exercise its main() directly.
    write_offender(tmp_path)
    assert lint_main([str(tmp_path)]) == 1
    assert "RPR001" in capsys.readouterr().out


def test_suppressed_file_is_clean(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "core" / "justified.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "_REGISTRY = {}\n"
        "\n"
        "def register(name, factory):\n"
        "    # repro-lint: disable=RPR003 -- bounded: setup-time registration only\n"
        "    _REGISTRY[name] = factory\n",
        encoding="utf-8",
    )
    assert repro_main(["lint", str(tmp_path)]) == 0
    assert "no violations" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_clean_dir_both_formats(tmp_path, capsys, fmt):
    (tmp_path / "clean.py").write_text("VALUE = 3\n", encoding="utf-8")
    assert repro_main(["lint", "--format", fmt, str(tmp_path)]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["ok"] is True


# ---------------------------------------------------------------------------
# --jobs


def test_jobs_output_identical_to_serial(tmp_path, capsys):
    write_offender(tmp_path)
    for index in range(4):
        (tmp_path / f"clean_{index}.py").write_text(
            f"VALUE_{index} = {index}\n", encoding="utf-8"
        )
    assert repro_main(["lint", "--format", "json", str(tmp_path)]) == 1
    serial = capsys.readouterr().out
    exit_code = repro_main(
        ["lint", "--format", "json", "--jobs", "4", str(tmp_path)]
    )
    parallel = capsys.readouterr().out
    assert exit_code == 1
    # Byte-identical output, not merely equivalent findings.
    assert parallel == serial


def test_jobs_negative_is_usage_error(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("VALUE = 3\n", encoding="utf-8")
    assert repro_main(["lint", "--jobs", "-2", str(tmp_path)]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_zero_means_cpu_count(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("VALUE = 3\n", encoding="utf-8")
    assert repro_main(["lint", "--jobs", "0", str(tmp_path)]) == 0
    assert "no violations" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# --format sarif


def test_sarif_format_shape(tmp_path, capsys):
    target = write_offender(tmp_path)
    exit_code = repro_main(["lint", "--format", "sarif", str(tmp_path)])
    captured = capsys.readouterr()
    assert exit_code == 1
    sarif = json.loads(captured.out)
    assert sarif["version"] == "2.1.0"
    assert "sarif-2.1.0" in sarif["$schema"]
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"RPR000", "RPR001", "RPR006", "RPR009"} <= declared
    results = run["results"]
    assert {r["ruleId"] for r in results} == {"RPR001", "RPR003"}
    for result in results:
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == str(target)
        region = location["region"]
        # SARIF is 1-based in both dimensions.
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1
        index = result["ruleIndex"]
        assert run["tool"]["driver"]["rules"][index]["id"] == result["ruleId"]


def test_sarif_clean_run_has_empty_results(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("VALUE = 3\n", encoding="utf-8")
    assert repro_main(["lint", "--format", "sarif", str(tmp_path)]) == 0
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["runs"][0]["results"] == []


def test_output_flag_writes_report_file(tmp_path, capsys):
    write_offender(tmp_path)
    report_path = tmp_path / "lint.sarif"
    exit_code = repro_main(
        [
            "lint",
            "--format",
            "sarif",
            "--output",
            str(report_path),
            str(tmp_path),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    sarif = json.loads(report_path.read_text(encoding="utf-8"))
    assert sarif["version"] == "2.1.0"
    # stdout carries the summary, not the report.
    assert "violation" in captured.out
    assert str(report_path) in captured.out


# ---------------------------------------------------------------------------
# --baseline / --write-baseline


def test_baseline_roundtrip_suppresses_known_findings(tmp_path, capsys):
    write_offender(tmp_path)
    baseline = tmp_path / "baseline.json"
    exit_code = repro_main(
        ["lint", "--write-baseline", str(baseline), str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "2 findings recorded" in captured.out
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    assert len(payload["fingerprints"]) == 2

    # Same tree + baseline: clean.
    exit_code = repro_main(
        ["lint", "--baseline", str(baseline), str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "no violations" in captured.out
    assert "2 known findings suppressed" in captured.out


def test_baseline_new_finding_still_fails(tmp_path, capsys):
    write_offender(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert (
        repro_main(["lint", "--write-baseline", str(baseline), str(tmp_path)])
        == 0
    )
    capsys.readouterr()
    fresh = tmp_path / "src" / "repro" / "core" / "fresh.py"
    fresh.write_text(
        "import numpy as np\n\n\ndef draw():\n    return np.random.rand(3)\n",
        encoding="utf-8",
    )
    exit_code = repro_main(
        ["lint", "--baseline", str(baseline), str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "fresh.py" in captured.out
    # The baselined offender stays suppressed; only the new file reports.
    assert "offender.py" not in captured.out


def test_missing_baseline_is_usage_error(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("VALUE = 3\n", encoding="utf-8")
    exit_code = repro_main(
        ["lint", "--baseline", str(tmp_path / "nope.json"), str(tmp_path)]
    )
    assert exit_code == 2
    assert "nope.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# whole-program rules through the CLI


def test_project_rule_finding_reported_by_cli(tmp_path, capsys):
    package = tmp_path / "src" / "repro"
    (package / "engine").mkdir(parents=True)
    (package / "core").mkdir(parents=True)
    (package / "engine" / "pipe.py").write_text(
        "from repro.core.mes import choose\n", encoding="utf-8"
    )
    (package / "core" / "mes.py").write_text(
        "def choose():\n    return 1\n", encoding="utf-8"
    )
    exit_code = repro_main(["lint", "--select", "RPR009", str(tmp_path)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "RPR009" in captured.out
    assert "must not import" in captured.out
