"""scripts/byte_contract.py refuses what would make two manifests match wrongly."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "byte_contract.py"


def contract(checkout, out):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(checkout), str(out)], capture_output=True, text=True
    )


def test_a_non_empty_out_is_refused(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "left.txt").write_text("from an earlier run\n")
    done = contract(tmp_path / "checkout", out)
    assert done.returncode != 0
    assert "must be absent or an empty directory" in done.stderr
    assert [path.name for path in out.iterdir()] == ["left.txt"]


def test_a_failing_command_stops_the_script_before_the_manifest(tmp_path):
    # a checkout whose experiment crashes must never "match" another's manifest
    checkout = tmp_path / "checkout"
    (checkout / "scripts").mkdir(parents=True)
    (checkout / "scripts" / "run_experiment.py").write_text("raise SystemExit(1)\n")
    out = tmp_path / "out"
    done = contract(checkout, out)
    assert done.returncode != 0
    assert "exit status 1 from" in done.stderr
    assert "run_experiment.py" in done.stderr
    assert not (out / "manifest.tsv").exists()
