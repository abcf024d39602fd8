"""Every script under scripts/ runs to completion, the character survey
prints the character tables recorded below, and bench_pairs judges a
claimed gain by its pairs and counts the package's lines."""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

SURVEY_CHARACTERS = [
    "chi((1 2 3)) = w(3)",
    "chi((1 2 3)) = 1",
    "chi((1 2 3)) = 1",
    "chi((1 2 4)) = 1",
    "chi((1 2 5)) = 1",
    "chi((1 2 3)) = 1",
    "chi((1 2 4)) = 1",
    "chi((1 2 5)) = 1",
]


def run_script(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_exits_zero(path):
    result = run_script(path)
    assert result.returncode == 0, result.stderr


def test_survey_character_tables():
    result = run_script(ROOT / "scripts" / "survey_characters.py")
    lines = [line.strip() for line in result.stdout.splitlines()]
    assert [l for l in lines if re.match(r"chi\(\([\d ]+\)\) = ", l)] == SURVEY_CHARACTERS


def test_flagship_reports_times_and_peak_rss():
    result = run_script(ROOT / "scripts" / "flagship.py")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "n = 5: sigma-form of the discriminant has 59 terms"
    assert [line.split()[0] for line in lines[1:4]] == ["build_s", "refute_s", "peak_rss_mb"]
    assert all(float(line.split()[1]) > 0 for line in lines[1:4])
    assert lines[4] == "refuted: even-symmetry obstruction at the closing identity"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_runs(parent, change):
    """Runs of one metric "m": pair i reads parent[i] and change[i]."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        runs += [{"pair": i, "side": "parent", "m": p}, {"pair": i, "side": "change", "m": c}]
    return runs


PARENT = [100, 102, 98, 101, 99, 103, 97, 100, 102, 98]  # quartiles 98.25, 101.75


@pytest.mark.parametrize("better, change, wins, claim_met", [
    # every pair won, medians 10 apart against a parent IQR of 3.5
    ("lower", [v - 10 for v in PARENT], 10, True),
    ("higher", [v + 10 for v in PARENT], 10, True),
    # 9 of 10 won, the tie counting for neither side
    ("lower", [v - 10 for v in PARENT[:9]] + [PARENT[9]], 9, True),
    # 8 of 10 won
    ("lower", [v - 10 for v in PARENT[:8]] + PARENT[8:], 8, False),
    # every pair won, but by less than the parent's IQR
    ("lower", [v - 1 for v in PARENT], 10, False),
    # a gain on a metric where higher is better does not count as lower
    ("higher", [v - 10 for v in PARENT], 0, False),
])
def test_bench_pairs_claim_rule(better, change, wins, claim_met):
    spec = [{"name": "m", "better": better, "bound": 0.25}]
    summary = load_bench_pairs().summarize(synthetic_runs(PARENT, change), spec)["m"]
    assert summary["parent_iqr"] == 3.5
    assert (summary["change_wins"], summary["pairs"]) == (wins, 10)
    assert summary["claim_met"] is claim_met


def test_bench_pairs_counts_package_lines(tmp_path):
    package = tmp_path / "src" / "radform"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not counted\n")
    assert load_bench_pairs().src_lines(tmp_path) == 4
