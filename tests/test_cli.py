import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acfl import dataset
from acfl.cli import cli_main
from acfl.numerics import eig_min_sym


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


def _run_python(*args):
    """Run ``python -W error`` with ``args``: a warning in the child fails it, as
    pyproject's ``filterwarnings`` makes one fail a test in this process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], capture_output=True, text=True, env=env,
        timeout=120,
    )


def _run_cli_process(command, path):
    return _run_python("-m", "acfl.cli", command, str(path))


def test_import_loads_no_scipy():
    # scipy.linalg alone once took longer to import than the reference experiment ran.
    proc = _run_python(
        "-c",
        "import sys, acfl, acfl.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_arguments_is_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1


@pytest.mark.parametrize(
    "argv, usage, error",
    [
        (["overhead", "--phi", "32"], "usage: acfl overhead ", "acfl overhead: error: "),
        (["run"], "usage: acfl run ", "acfl run: error: "),
        (["run", "c.json", "--workers", "x"], "usage: acfl run ", "acfl run: error: "),
        (["privacy", "--d", "3", "--o", "2"], "usage: acfl privacy ", "acfl privacy: error: "),
        (["frobnicate"], "usage: acfl [-h]", "acfl: error: argument command: invalid choice"),
    ],
    ids=["overhead-missing-flags", "run-no-config", "run-bad-workers", "privacy-no-noise", "unknown"],
)
def test_usage_error_prints_the_usage_of_its_command(capsys, argv, usage, error):
    # A subcommand's usage line names the flags it needs; the top level's does not.
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(usage), err
    assert error in err


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


def test_privacy_help_states_what_epsilon_covers():
    proc = _run_python("-m", "acfl.cli", "privacy", "--help")
    assert proc.returncode == 0, proc.stderr
    text = " ".join(proc.stdout.split())
    assert "one-time coded upload" in text and "each data entry" in text
    assert "does not cover the exact gradients" in text


def test_overhead_values(capsys):
    code = cli_main(
        ["overhead", "--phi", "32", "--d", "10", "--o", "10", "--n", "100", "--t", "1000"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "psi1=640000 psi2=320000000 psi_total=320640000"


def test_console_script_entry_point(monkeypatch, capsys):
    # The installed ``acfl`` command calls the target that pyproject.toml
    # names; it exits with cli_main's status.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["acfl"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    argv = ["overhead", "--phi", "32", "--d", "10", "--o", "10", "--n", "100", "--t", "1000"]
    monkeypatch.setattr(sys, "argv", ["acfl", *argv])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert exit_info.value.code == 0
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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_each_replicate_optimum_is_solved_once(tmp_path, capsys, monkeypatch, command):
    # train's optimum gives a replicate its 1/(lam t) schedule and its final
    # loss; eig_min_sym, which the optimum calls once, counts the solves: one
    # per replicate, and one for replicate 0 in the auto oracle's probe.
    solves = []

    def counting_eig_min_sym(a):
        solves.append(a.shape)
        return eig_min_sym(a)

    monkeypatch.setattr(dataset, "eig_min_sym", counting_eig_min_sym)
    path = write_run_config(
        tmp_path, policy={"kind": "adaptive-oracle"}, schedule={"kind": "strong-convexity"},
        replicates=3,
    )
    assert cli_main([command, str(path)]) == 0
    assert solves == [(3, 3)] * (1 + 3)


@pytest.mark.parametrize("c", [1e300, 1e308])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_non_finite_final_iterate_exits_2_naming_its_iteration(tmp_path, capsys, command, c):
    # One step of size c leaves a final iterate that no trace row holds and
    # whose loss overflows (at 1e308 the iterate itself is infinite).  train
    # checks it and its final loss like a row, as iteration `steps`: exit 2,
    # no warning (the suite makes one an error), no files.
    path = write_run_config(
        tmp_path, dataset={"n_devices": 5, "m": 8, "d": 3, "o": 2}, straggler_p=0.2,
        schedule={"kind": "inverse", "c": c}, steps=1, master_seed=3, replicates=1,
        noise_levels=[0.1, 10.0],
    )
    assert cli_main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("acfl: error: training diverged at iteration 1 in arm 0 "), err
    assert "last finite loss: " in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_workers_flag_is_accepted_and_changes_no_byte(tmp_path, capsys, command):
    # The bench passes --workers 1 to every run; the flag must keep parsing.
    written = {}
    for name, extra in (("plain", []), ("workers", ["--workers", "1"])):
        (tmp_path / name).mkdir()
        path = write_run_config(tmp_path / name)
        assert cli_main([command, str(path), *extra]) == 0
        out = tmp_path / name / "out"
        written[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert written["plain"] and written["plain"] == written["workers"]


def test_run_missing_config_is_runtime_error(tmp_path, capsys):
    assert cli_main(["run", str(tmp_path / "nope.json")]) == 2


def test_run_invalid_config_is_runtime_error(tmp_path, capsys):
    path = write_run_config(tmp_path, straggler_p=1.5)
    assert cli_main(["run", str(path)]) == 2
    assert "straggler_p" in capsys.readouterr().err


# Extreme finite trade-off inputs: lam^2 T underflows to 0; the closed form
# of u~ would square a term near float max; u overflows.  The first and last
# exit 2 naming the grid point, the second writes its representable result.
EXTREME_TRADEOFFS = {
    "lambda-underflows": (
        {"p": 0.2, "n_devices": 10, "beta_sq": 1.0, "c_sq": 1.0, "lambda": 1e-200, "steps": 100},
        "sigma_grid[0]",
    ),
    "huge-beta-near-one-p": (
        {
            "p": 0.999999, "n_devices": 1, "beta_sq": 1e300, "c_sq": 1.0, "lambda": 1e300,
            "steps": 1e18, "sigma_grid": [1.0],
        },
        None,
    ),
    "u-overflows": (
        {
            "p": 0.0, "n_devices": 1000000, "beta_sq": 1.7e308, "c_sq": 1.0, "lambda": 1.0,
            "steps": 1, "sigma_grid": [1.0],
        },
        "sigma_grid[0]",
    ),
}


@pytest.mark.parametrize(
    "raw, field", EXTREME_TRADEOFFS.values(), ids=EXTREME_TRADEOFFS.keys()
)
def test_tradeoff_extreme_finite_inputs(tmp_path, raw, field):
    path = tmp_path / "tradeoff.json"
    path.write_text(json.dumps({**raw, "d": 2, "o": 2, "out_dir": str(tmp_path / "curves")}))
    proc = _run_cli_process("tradeoff", path)
    assert "Traceback" not in proc.stderr
    if field is not None:
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"acfl: error: {field}: "), proc.stderr
        assert "not finite" in proc.stderr
        assert not (tmp_path / "curves").exists()
        return
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "curves" / "tradeoff_adaptive.csv").read_text().splitlines()
    sigma_sq, _, _, u, bound = map(float, rows[1].split(","))
    assert (sigma_sq, u) == (1.0, 1e300)
    assert bound == pytest.approx(4e-318, rel=1e-5)


@pytest.mark.parametrize("field", ["n_devices", "steps", "d", "o"])
def test_tradeoff_refuses_an_integer_past_float_range(tmp_path, field):
    # A JSON integer is read exactly, so 10**400 reaches the bounds as an int,
    # which no float can hold: it is refused by name, not converted.
    path = write_tradeoff_config(tmp_path, **{field: 10**400})
    proc = _run_cli_process("tradeoff", path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"acfl: error: {field}: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "curves").exists()


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


def test_tradeoff_defaults_to_the_adaptive_curve_on_49_log_spaced_variances(tmp_path, capsys):
    raw = json.loads(write_tradeoff_config(tmp_path).read_text())
    del raw["sigma_grid"], raw["policies"]
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["tradeoff", str(path)]) == 0
    assert [p.name for p in (tmp_path / "curves").iterdir()] == ["tradeoff_adaptive.csv"]
    rows = (tmp_path / "curves" / "tradeoff_adaptive.csv").read_text().splitlines()[1:]
    assert len(rows) == 49
    sigma_sq = [float(row.split(",")[0]) for row in rows]
    assert sigma_sq == np.geomspace(1e-2, 1e4, 49).tolist()


def test_tradeoff_missing_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 0.1}))
    assert cli_main(["tradeoff", str(path)]) == 2


# An auto-oracle spec, as policy or as baseline, cannot be probed without steps.
PROBE = "steps: auto oracle constants need steps >= 1 to probe"
REPLICATES_PAST_SIZES = f"replicates={10**30}: the records of the run: "
REPLICATES_PAST_MEMORY = f"replicates={10**12}: the records of the run: "
EPSILON_TOO_SMALL = "noise.epsilon: 1e-320 is too small: "


@pytest.mark.parametrize(
    "command,writer,override,field",
    [
        ("run", write_run_config, {"steps": "abc"}, "steps"),
        ("run", write_run_config, {"noise_levels": 3}, "noise_levels"),
        ("run", write_run_config, {"dataset": 7}, "dataset"),
        ("compare", write_run_config, {"noise_levels": [1.0, 1.0]}, "noise_levels[1]"),
        ("tradeoff", write_tradeoff_config, {"policies": [3]}, "policies[0]"),
        ("tradeoff", write_tradeoff_config, {"sigma_grid": []}, "sigma_grid"),
        # JSON configs may spell NaN and Infinity; each is refused where it is read.
        ("compare", write_run_config, {"noise_levels": [0.5, math.nan]}, "noise_levels[1]"),
        ("run", write_run_config, {"schedule": {"kind": "inverse", "c": math.inf}}, "schedule.c"),
        (
            "run",
            write_run_config,
            {"noise": {"sigma1_sq": math.nan, "sigma2_sq": 0.5}},
            "noise.sigma1_sq",
        ),
        (
            "run",
            write_run_config,
            {"policy": {"kind": "adaptive-oracle", "beta_sq": math.inf, "c_sq": 1.0}},
            "policy.beta_sq",
        ),
        # Integer fields refuse a fractional part rather than truncate it.
        ("run", write_run_config, {"steps": 2.5}, "steps: expected int, got 2.5"),
        ("compare", write_run_config, {"replicates": 1.9}, "replicates: expected int, got 1.9"),
        (
            "run",
            write_run_config,
            {"dataset": {"n_devices": 100.5, "m": 8, "d": 3, "o": 2}},
            "dataset.n_devices: expected int, got 100.5",
        ),
        ("run", write_run_config, {"steps": True}, "steps: expected int, got True"),
        ("tradeoff", write_tradeoff_config, {"steps": 2.5}, "steps: expected int, got 2.5"),
        # An out_dir must be a nonempty string, and no two curves may share a file.
        ("run", write_run_config, {"out_dir": None}, "out_dir: expected a string, got None"),
        ("tradeoff", write_tradeoff_config, {"out_dir": 5}, "out_dir: expected a string, got 5"),
        ("tradeoff", write_tradeoff_config, {"out_dir": ""}, "out_dir: must be a nonempty path"),
        (
            "tradeoff",
            write_tradeoff_config,
            {"policies": [{"kind": "fixed", "alpha": a} for a in (0.1234567, 0.1234568)]},
            "policies[1]: repeats the curve name 'fixed_0.123457'",
        ),
        (
            "tradeoff",
            write_tradeoff_config,
            {"policies": [{"kind": "adaptive"}, {"kind": "fixed", "alpha": 1}] * 2},
            "policies[2]: repeats the curve name 'adaptive'",
        ),
        (
            "tradeoff",
            write_tradeoff_config,
            {"policies": []},
            "policies: need at least one policy",
        ),
        # A misspelt or extra key is refused by its path, never read as a default.
        ("run", write_run_config, {"noise_level": [1.0]}, "noise_level: unknown field"),
        (
            "compare",
            write_run_config,
            {"basline": {"kind": "fixed", "alpha": 0.2}},
            "basline: unknown field",
        ),
        (
            "run",
            write_run_config,
            {"policy": {"kind": "adaptive-estimated", "fallback_alpa": 0.2}},
            "policy.fallback_alpa: unknown field",
        ),
        ("tradeoff", write_tradeoff_config, {"sigma_grd": [1.0]}, "sigma_grd: unknown field"),
        (
            "run",
            write_run_config,
            {"noise": {"epsilon": 2, "sigma1_sq": 0.5, "sigma2_sq": 0.5}},
            "noise.sigma1_sq: unknown field",
        ),
        (
            "run",
            write_run_config,
            {"policy": {"kind": "adaptive-oracle", "beta_sq": 1.0, "c_sq": 1.0, "margin": 2.0}},
            "policy.margin: unknown field",
        ),
        (
            "run",
            write_run_config,
            {"schedule": {"kind": "strong-convexity", "c": 0.1}},
            "schedule.c: unknown field",
        ),
        (
            "tradeoff",
            write_tradeoff_config,
            {"policies": [{"kind": "adaptive", "alpha": 0.5}]},
            "policies[0].alpha: unknown field",
        ),
        ("run", write_run_config, {"policy": {"kind": "adaptive-oracle"}, "steps": 0}, PROBE),
        ("compare", write_run_config, {"policy": {"kind": "adaptive-oracle"}, "steps": 0}, PROBE),
        (
            "compare",
            write_run_config,
            {
                "policy": {"kind": "fixed", "alpha": 0.5},
                "baseline": {"kind": "adaptive-oracle"},
                "steps": 0,
            },
            PROBE,
        ),
        (
            "run",
            write_run_config,
            {"dataset": {"n_devices": 10**30, "m": 8, "d": 3, "o": 2}},
            f"n_devices={10**30}, d=3, o=2: Gram stacks: ",
        ),
        (
            "run",
            write_run_config,
            {"dataset": {"n_devices": 3, "m": 8, "d": 3, "o": 2**62}},
            f"n_devices=3, d=3, o={2**62}: Gram stacks: ",
        ),
        ("run", write_run_config, {"steps": 10**30}, f"steps={10**30}: the trace record: "),
        ("run", write_run_config, {"replicates": 10**30}, REPLICATES_PAST_SIZES),
        ("compare", write_run_config, {"replicates": 10**30}, REPLICATES_PAST_SIZES),
        # Records that numpy could index but no memory holds.
        ("run", write_run_config, {"replicates": 10**12}, REPLICATES_PAST_MEMORY),
        ("compare", write_run_config, {"replicates": 10**12}, REPLICATES_PAST_MEMORY),
        # An epsilon is calibrated as the file is read, for both commands.
        ("run", write_run_config, {"noise": {"epsilon": 1e-320}}, EPSILON_TOO_SMALL),
        ("compare", write_run_config, {"noise": {"epsilon": 1e-320}}, EPSILON_TOO_SMALL),
        (
            "run",
            write_run_config,
            {"noise": {"epsilon": -1}},
            "noise.epsilon: must be positive, got -1.0",
        ),
        (
            "run",
            write_run_config,
            {"dataset": {"n_devices": 3, "m": 8, "d": 0, "o": 2}, "noise": {"epsilon": 2.0}},
            "dataset.d: must be positive, got 0",
        ),
        # A trade-off value that would stop a curve is refused as it is read.
        (
            "tradeoff",
            write_tradeoff_config,
            {"policies": [{"kind": "adaptive"}, {"kind": "fixed", "alpha": 1.5}]},
            "policies[1].alpha: must lie in [0, 1], got 1.5",
        ),
        (
            "tradeoff",
            write_tradeoff_config,
            {"n_devices": 0},
            "n_devices: must be finite and positive, got 0",
        ),
        ("tradeoff", write_tradeoff_config, {"p": 1.0}, "p: must lie in [0, 1), got 1.0"),
        (
            "tradeoff",
            write_tradeoff_config,
            {"lambda": 0},
            "lambda: must be finite and positive, got 0.0",
        ),
        (
            "tradeoff",
            write_tradeoff_config,
            {"sigma_grid": [1.0, -1.0]},
            "sigma_grid[1]: must be finite and positive, got -1.0",
        ),
        # A library type's own range check names the field by its dotted path.
        (
            "run",
            write_run_config,
            {"noise": {"sigma1_sq": -1, "sigma2_sq": 0.5}},
            "noise.sigma1_sq: must be finite and nonnegative, got -1.0",
        ),
        (
            "run",
            write_run_config,
            {"schedule": {"kind": "inverse", "c": -1}},
            "schedule.c: must be finite and positive, got -1.0",
        ),
        (
            "run",
            write_run_config,
            {"policy": {"kind": "fixed", "alpha": 1.5}},
            "policy.alpha: must lie in [0, 1], got 1.5",
        ),
        (
            "compare",
            write_run_config,
            {"baseline": {"kind": "fixed", "alpha": -0.1}},
            "baseline.alpha: must lie in [0, 1], got -0.1",
        ),
        (
            "run",
            write_run_config,
            {"policy": {"kind": "adaptive-oracle", "beta_sq": -1, "c_sq": 1.0}},
            "policy.beta_sq: must be finite and positive, got -1.0",
        ),
        (
            "run",
            write_run_config,
            {"policy": {"kind": "adaptive-oracle", "margin": 0.5}},
            "policy.margin: must be at least 1, got 0.5",
        ),
        # A margin that overflows a probed norm's bound is refused by its name.
        (
            "run",
            write_run_config,
            {
                "dataset": {"n_devices": 5, "m": 2000, "d": 3, "o": 2},
                "noise": {"sigma1_sq": 0.1, "sigma2_sq": 0.1},
                "policy": {"kind": "adaptive-oracle", "margin": 1e308},
                "steps": 20,
                "master_seed": 7,
                "replicates": 1,
            },
            "margin: 1e+308 times a probed norm overflows",
        ),
        (
            "run",
            write_run_config,
            {"policy": {"kind": "adaptive-estimated", "fallback_alpha": 2}},
            "policy.fallback_alpha: must lie in [0, 1], got 2.0",
        ),
    ],
    ids=[
        "run-steps",
        "run-noise_levels",
        "run-dataset",
        "compare-repeated-level",
        "tradeoff-policies",
        "tradeoff-sigma_grid",
        "compare-nan-level",
        "run-inf-schedule-c",
        "run-nan-sigma1_sq",
        "run-inf-beta_sq",
        "run-fractional-steps",
        "compare-fractional-replicates",
        "run-fractional-n_devices",
        "run-boolean-steps",
        "tradeoff-fractional-steps",
        "run-null-out_dir",
        "tradeoff-number-out_dir",
        "tradeoff-empty-out_dir",
        "tradeoff-repeated-fixed-curve",
        "tradeoff-repeated-adaptive-curve",
        "tradeoff-empty-policies",
        "run-unknown-noise_level",
        "compare-unknown-basline",
        "run-unknown-policy-field",
        "tradeoff-unknown-sigma_grd",
        "run-noise-both-forms",
        "run-oracle-constants-and-margin",
        "run-unknown-schedule-field",
        "tradeoff-unknown-policies-field",
        "run-auto-oracle-policy-zero-steps",
        "compare-auto-oracle-policy-zero-steps",
        "compare-auto-oracle-baseline-zero-steps",
        "run-n_devices-past-numpy-sizes",
        "run-o-past-numpy-sizes",
        "run-steps-past-numpy-sizes",
        "run-replicates-past-numpy-sizes",
        "compare-replicates-past-numpy-sizes",
        "run-replicates-past-memory",
        "compare-replicates-past-memory",
        "run-epsilon-too-small",
        "compare-epsilon-too-small",
        "run-negative-epsilon",
        "run-epsilon-zero-d",
        "tradeoff-alpha-above-one",
        "tradeoff-zero-n_devices",
        "tradeoff-p-one",
        "tradeoff-zero-lambda",
        "tradeoff-negative-grid-variance",
        "run-negative-sigma1_sq",
        "run-negative-schedule-c",
        "run-policy-alpha-above-one",
        "compare-negative-baseline-alpha",
        "run-negative-beta_sq",
        "run-margin-below-one",
        "run-margin-overflows-a-bound",
        "run-fallback_alpha-above-one",
    ],
)
def test_bad_config_values_exit_2_without_traceback(tmp_path, command, writer, override, field):
    proc = _run_cli_process(command, writer(tmp_path, **override))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"acfl: error: {field}" in proc.stderr
    assert not list(tmp_path.rglob("*.csv"))  # no artifact, not even a first curve
    assert not (tmp_path / "out").exists()  # nor the run's output directory


# Each case repeats one key in the raw text of a valid config: at the top
# level, in a nested object and in an object of a list.
REPEATED_KEYS = {
    "run-top-level": ("run", write_run_config, '"steps": 4', '"steps": 5, "steps": 7', "steps"),
    "run-nested": ("run", write_run_config, '"m": 8', '"m": 8, "m": 9', "dataset.m"),
    "compare-nested": (
        "compare", write_run_config, '"kind": "adaptive-estimated"',
        '"kind": "adaptive-estimated", "kind": "fixed"', "policy.kind",
    ),
    "tradeoff-top-level": (
        "tradeoff", write_tradeoff_config, '"lambda": 1.0', '"lambda": 1.0, "lambda": 2.0', "lambda",
    ),
    "tradeoff-list-item": (
        "tradeoff", write_tradeoff_config, '"alpha": 0.5', '"alpha": 0.5, "alpha": 0.25',
        "policies[1].alpha",
    ),
}


@pytest.mark.parametrize(
    "command, writer, old, new, field", REPEATED_KEYS.values(), ids=REPEATED_KEYS.keys()
)
def test_a_repeated_config_key_exits_2_naming_it(tmp_path, capsys, command, writer, old, new, field):
    path = writer(tmp_path)
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert cli_main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"acfl: error: {field}: repeated field\n"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["run", "compare", "tradeoff"])
@pytest.mark.parametrize(
    "content,message",
    [
        (b"\xff\xfe{}", "is not UTF-8 text"),
        (b"[" * 200_000, "is nested too deeply"),
        (b'{"steps": ' + b"9" * 5000 + b"}", "invalid number"),
    ],
    ids=["not-utf8", "nested-200000", "int-5000-digits"],
)
def test_unreadable_config_file_exits_2_without_traceback(tmp_path, command, content, message):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    proc = _run_cli_process(command, path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("acfl: error: config: ")
    assert str(path) in proc.stderr and message in proc.stderr


@pytest.mark.parametrize(
    "override",
    [
        {"dataset": {"n_devices": 10**12, "m": 8, "d": 3, "o": 2}},
        {"steps": 10**14},
    ],
    ids=["n_devices", "steps"],
)
def test_config_too_large_for_memory_exits_2_without_traceback(tmp_path, override):
    # Both arrays exceed the 128 TiB virtual address space, so numpy refuses
    # them without allocating anything.
    proc = _run_cli_process("run", write_run_config(tmp_path, **override))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "acfl: error: Unable to allocate" in proc.stderr
