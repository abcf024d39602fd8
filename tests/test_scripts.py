"""Every script under scripts/ runs to completion, the character survey
prints the character tables recorded below, and bench_pairs judges a
claimed gain by its pairs, counts the package's lines and reads peak RSS
at equal op counts."""

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


def rss_runs(parent_ops, change_ops, change_extra_mb):
    """Runs on the line 20 MB + 0.25 MB (256 KB) per op, the change's
    raised by change_extra_mb."""
    runs = []
    for i, (p, c) in enumerate(zip(parent_ops, change_ops)):
        runs.append({"pair": i, "side": "parent", "attempted": p, "peak_rss_mb": 20 + p / 4})
        runs.append({"pair": i, "side": "change", "attempted": c,
                     "peak_rss_mb": 20 + c / 4 + change_extra_mb})
    return runs


def test_bench_pairs_rss_at_equal_ops():
    # more ops alone: the change's median moves back onto the parent's
    block = load_bench_pairs().rss_at_equal_ops(rss_runs([10, 12, 14], [16, 20, 22], 0))
    assert (block["parent_median_attempted"], block["change_median_attempted"]) == (12, 20)
    assert (block["parent_median_peak_rss_mb"], block["change_median_peak_rss_mb"]) == (23, 25)
    assert block["slope_kb_per_op"] == pytest.approx(256)
    assert block["change_peak_rss_mb_at_parent_ops"] == pytest.approx(23)
    assert block["change_frac_at_parent_ops"] == pytest.approx(0)
    # memory of the change's own stays when the op counts are equal
    block = load_bench_pairs().rss_at_equal_ops(rss_runs([10, 12, 14], [10, 12, 14], 2.3))
    assert block["slope_kb_per_op"] == pytest.approx(256)
    assert block["change_peak_rss_mb_at_parent_ops"] == pytest.approx(25.3)
    assert block["change_frac_at_parent_ops"] == pytest.approx(0.1)


def test_bench_pairs_rss_slope_undefined_at_one_op_count():
    runs = [{"pair": 0, "side": side, "attempted": 100, "peak_rss_mb": rss}
            for side, rss in (("parent", 20.0), ("change", 21.0))]
    block = load_bench_pairs().rss_at_equal_ops(runs)
    assert block["slope_kb_per_op"] is None
    assert block["change_peak_rss_mb_at_parent_ops"] == 21.0
    assert block["change_frac_at_parent_ops"] == pytest.approx(0.05)
