import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from acfl.cli import cli_main


def write_run_config(tmp_path, **overrides):
    raw = {
        "dataset": {"n_devices": 3, "m": 8, "d": 3, "o": 2},
        "straggler_p": 0.2,
        "noise": {"sigma1_sq": 0.5, "sigma2_sq": 0.5},
        "policy": {"kind": "adaptive-estimated"},
        "schedule": {"kind": "inverse", "c": 0.001},
        "steps": 4,
        "master_seed": 5,
        "replicates": 2,
        "out_dir": str(tmp_path / "out"),
        "noise_levels": [0.5, 2.0],
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def write_tradeoff_config(tmp_path, **overrides):
    raw = {
        "p": 0.1,
        "n_devices": 5,
        "beta_sq": 100.0,
        "c_sq": 1.0,
        "d": 100,
        "o": 10,
        "lambda": 1.0,
        "steps": 1000,
        "sigma_grid": [0.5, 1.0, 2.0],
        "policies": [{"kind": "adaptive"}, {"kind": "fixed", "alpha": 0.5}],
        "out_dir": str(tmp_path / "curves"),
    }
    raw.update(overrides)
    path = tmp_path / "tradeoff.json"
    path.write_text(json.dumps(raw))
    return path


def test_no_arguments_is_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_privacy_epsilon_from_sigma(capsys):
    assert cli_main(["privacy", "--d", "10", "--o", "10", "--sigma-sq", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("epsilon_nats=10.050634")


def test_privacy_sigma_from_epsilon(capsys):
    eps = repr(14.5 * math.log(2.0))
    assert cli_main(["privacy", "--d", "10", "--o", "10", "--epsilon", eps]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sigma_sq=")
    assert float(out.split("=")[1]) == pytest.approx(1.0, rel=1e-9)


def test_privacy_rejects_zero_sigma(capsys):
    assert cli_main(["privacy", "--d", "10", "--o", "10", "--sigma-sq", "0"]) == 2


def test_overhead_values(capsys):
    code = cli_main(
        ["overhead", "--phi", "32", "--d", "10", "--o", "10", "--n", "100", "--t", "1000"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "psi1=640000 psi2=320000000 psi_total=320640000"


def test_run_subcommand(tmp_path, capsys):
    path = write_run_config(tmp_path)
    assert cli_main(["run", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (tmp_path / "out" / "trace.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert out[0].endswith("trace.csv") and out[1].endswith("summary.csv")


def test_compare_subcommand(tmp_path, capsys):
    path = write_run_config(tmp_path)
    assert cli_main(["compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "out" / "comparison.csv").exists()
    assert "win_rate[sigma_sq=0.5]=" in out
    assert "win_rate[sigma_sq=2]=" in out


def test_run_missing_config_is_runtime_error(tmp_path, capsys):
    assert cli_main(["run", str(tmp_path / "nope.json")]) == 2


def test_run_invalid_config_is_runtime_error(tmp_path, capsys):
    path = write_run_config(tmp_path, straggler_p=1.5)
    assert cli_main(["run", str(path)]) == 2
    assert "straggler_p" in capsys.readouterr().err


def test_tradeoff_subcommand(tmp_path, capsys):
    path = write_tradeoff_config(tmp_path)
    assert cli_main(["tradeoff", str(path)]) == 0
    adaptive = (tmp_path / "curves" / "tradeoff_adaptive.csv").read_text().splitlines()
    fixed = (tmp_path / "curves" / "tradeoff_fixed_0.5.csv").read_text().splitlines()
    assert adaptive[0] == "sigma_sq,epsilon_nats,alpha,u,bound"
    assert len(adaptive) == 4 and len(fixed) == 4
    row = adaptive[2].split(",")  # sigma_sq = 1.0 is the reference point
    assert float(row[2]) == pytest.approx(0.01, abs=1e-12)
    assert float(row[3]) == pytest.approx(2555.0, abs=1e-6)
    assert float(row[4]) == pytest.approx(10.22, abs=1e-6)


def test_tradeoff_missing_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 0.1}))
    assert cli_main(["tradeoff", str(path)]) == 2


@pytest.mark.parametrize(
    "command,writer,override,field",
    [
        ("run", write_run_config, {"steps": "abc"}, "steps"),
        ("run", write_run_config, {"noise_levels": 3}, "noise_levels"),
        ("run", write_run_config, {"dataset": 7}, "dataset"),
        ("tradeoff", write_tradeoff_config, {"policies": [3]}, "policies[0]"),
        ("tradeoff", write_tradeoff_config, {"sigma_grid": []}, "sigma_grid"),
    ],
    ids=["run-steps", "run-noise_levels", "run-dataset", "tradeoff-policies", "tradeoff-sigma_grid"],
)
def test_bad_config_values_exit_2_without_traceback(tmp_path, command, writer, override, field):
    path = writer(tmp_path, **override)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "acfl.cli", command, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"acfl: error: {field}" in proc.stderr
