"""The example scripts run end to end and print their pinned lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    "script, args, pinned",
    [
        (
            "genus2_series.py",
            ["6"],
            [
                "series to order 6:",
                "  t^0: s[]",
                "  t^1: 2*s[1]",
                "  t^2: s[1,1] + s[2]",
                "  t^3: 0",
                "  t^4: -s[2,2] - s[3,1] + s[4]",
                "  t^5: -2*s[3,2] + 2*s[4,1] + 2*s[5]",
            ],
        ),
        (
            "irr_table.py",
            ["2", "3"],
            [
                "# 2 variables",
                "  degree 1: [Irr] = L^2 + L",
                "            e(u,v) = u^2*v^2 + u*v   chi = 2",
                "  degree 2: [Irr] = L^5 - L^2",
                "  degree 3: [Irr] = L^9 + L^8 - L^6 - L^5",
            ],
        ),
    ],
)
def test_script_output(script, args, pinned):
    lines = run_script(script, *args)
    for line in pinned:
        assert line in lines


def test_cli_capture_of_one_tree_diffs_to_zero(tmp_path):
    captures = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in captures:
        lines = run_script("cli_capture.py", "--src", str(ROOT / "src"), "--out", str(out), "--limit", "30")
        assert lines == [f"30 requests written to {out}"]
    assert run_script("cli_capture.py", "--diff", *map(str, captures)) == ["0 of 30 requests differ"]


def test_src_lines_counts_code_and_docstrings(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        '"""Module docstring,\n\non two lines."""\n\n# a comment\n    # an indented comment\nx = 1  # trailing\n\n\n'
    )
    (tmp_path / "b.py").write_text("def f():\n    \t\n    return 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert run_script("src_lines.py", str(tmp_path)) == ["     2 b.py", "     3 pkg/a.py", "     5 total"]
