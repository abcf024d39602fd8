"""Every script under scripts/ runs to completion, and the character
survey prints the character tables recorded below."""

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
