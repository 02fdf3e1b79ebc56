import os
import subprocess
import sys


def test_cli_import_leaves_numpy_unloaded(repo_root):
    """numpy serves only the oracle's exponent fit, which imports it when it runs."""
    code = "import sys, rooflm.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=repo_root, env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"
