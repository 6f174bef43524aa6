"""scripts/run_synthetic_eval.py end to end on a tiny corpus."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_eval.py"


def test_sweep_prints_each_table_and_keeps_each_run(tmp_path):
    out_dir = tmp_path / "runs"
    proc = subprocess.run(
        [
            sys.executable, str(SCRIPT),
            "--sites", "1",
            "--subtypes-per-site", "2",
            "--slides-per-subtype", "3",
            "--patches", "16",
            "--dim", "16",
            "--queries-per-subtype", "1",
            "--tasks", "site,patch",
            "--out-dir", str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "== site task ==" in lines and "== patch task ==" in lines
    runs = [f"{e}-site" for e in ("hshr", "retccl", "sish", "yottixel")]
    runs += [f"{e}-patch" for e in ("retccl", "sish", "yottixel")]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(runs)
    for run in runs:
        for name in ("rows.csv", "summary.csv", "run.json"):
            assert (out_dir / run / name).is_file(), f"{run}/{name}"
    # hshr cannot retrieve patches: its patch row is all dashes
    patch_table = lines[lines.index("== patch task ==") :]
    (hshr,) = [line for line in patch_table if line.startswith("hshr")]
    assert hshr.split()[1:] == ["-"] * 5
