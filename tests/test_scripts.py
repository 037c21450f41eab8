"""The studies in scripts/, each run end to end on tiny arguments."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# susceptibility_sweep needs at least 100 thinned samples: of 3,000 steps, a
# tenth are burn-in and the rest, thinned by 20, keep 135
STUDIES = {
    "curvature_floor_scan.py": (["--lambdas", "1", "--t-factors", "1.5"],
                                "lambda,t_critical,T,floor,predicted,difference"),
    "xy_convexity_profile.py": (["--steps", "2", "--grid", "5"],
                                "T,floor,measured_min_eig,convex"),
    "susceptibility_sweep.py": (["--n", "10", "--steps", "3000", "--replicas", "1",
                                 "--t-factors", "1.5"],
                                "T,t_factor,chi,chi_stderr,tc_over_gap"),
}


@pytest.mark.parametrize("script", sorted(STUDIES))
def test_study_runs(tmp_path, script):
    args, header = STUDIES[script]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = tmp_path / "out.csv"
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header and len(lines) >= 2
