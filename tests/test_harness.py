import copy
import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from acfl import harness
from acfl.coding import NoiseParams, encode_levels
from acfl.dataset import generate, optimum
from acfl.errors import NumericError, ParameterError
from acfl.harness import (
    PROBE_COLUMNS,
    RUN_COLUMNS,
    ExperimentConfig,
    OracleAuto,
    compare_baselines,
    config_from_dict,
    load_config,
    load_tradeoff_config,
    resolve_policy,
    run_experiment,
)
from acfl.numerics import RngStream
from acfl.privacy import sigma_for_epsilon
from acfl.training import (
    MASK_CHUNK_ROWS,
    TRACE_COLUMNS,
    AdaptiveEstimated,
    AdaptiveOracle,
    FixedWeight,
    InverseDecay,
    trace_bytes,
    train,
)
from reference import replay_samples, residual_loss


def small_config(out_dir, **overrides) -> ExperimentConfig:
    base = dict(
        n_devices=3,
        m=8,
        d=3,
        o=2,
        straggler_p=0.3,
        noise=NoiseParams(0.5, 0.5),
        policy=AdaptiveEstimated(),
        schedule=InverseDecay(1e-3),
        steps=5,
        master_seed=11,
        replicates=2,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def raw_config_dict(out_dir) -> dict:
    return {
        "dataset": {"n_devices": 3, "m": 8, "d": 3, "o": 2},
        "straggler_p": 0.3,
        "noise": {"sigma1_sq": 0.5, "sigma2_sq": 0.5},
        "policy": {"kind": "adaptive-estimated", "fallback_alpha": 1.0},
        "schedule": {"kind": "inverse", "c": 0.001},
        "steps": 5,
        "master_seed": 11,
        "replicates": 2,
        "out_dir": str(out_dir),
    }


# ------------------------------------------------------------------- config


def raw_tradeoff_dict(out_dir) -> dict:
    return {
        "p": 0.1,
        "n_devices": 5,
        "beta_sq": 100.0,
        "c_sq": 1.0,
        "d": 10,
        "o": 10,
        "lambda": 1.0,
        "steps": 1000,
        "sigma_grid": [0.5, 1.0],
        "policies": [{"kind": "adaptive"}, {"kind": "fixed", "alpha": 0.5}],
        "out_dir": str(out_dir),
    }


def epsilon_config(tmp_path) -> tuple[dict, ExperimentConfig]:
    """A raw config with epsilon noise, a strong-convexity schedule, a baseline and
    noise levels, and the config it must read to."""
    raw = raw_config_dict(tmp_path)
    raw["noise"] = {"epsilon": 2.5}
    raw["schedule"] = {"kind": "strong-convexity"}
    raw["baseline"] = {"kind": "fixed", "alpha": 0.25}
    raw["noise_levels"] = [0.25, 4.0]
    cfg = small_config(
        tmp_path,
        noise=sigma_for_epsilon(2.5, 3, 2),
        schedule=None,
        baseline=FixedWeight(0.25),
        noise_levels=(0.25, 4.0),
    )
    return raw, cfg


def test_config_dict_parses_to_config(tmp_path):
    raw, cfg = epsilon_config(tmp_path)
    before = copy.deepcopy(raw)
    assert config_from_dict(raw) == cfg
    assert raw == before  # every object is read from a copy


def test_config_file_parses_to_config(tmp_path):
    raw, cfg = epsilon_config(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert load_config(path) == cfg


@pytest.mark.parametrize(
    "shape,needle",
    [
        ({"d": 0}, "d: must be positive, got 0"),
        ({"n_devices": 0}, "n_devices: must be positive, got 0"),
        ({"m": 3}, "m: full column rank needs m > d, got m=3, d=3"),
    ],
    ids=["d", "n_devices", "m"],
)
def test_shape_is_checked_before_epsilon(tmp_path, shape, needle):
    # The reader checks the shape in its dataset block, before an epsilon is
    # calibrated at that shape; a config built in Python names its own field.
    raw, _ = epsilon_config(tmp_path)
    raw["dataset"].update(shape)
    with pytest.raises(ParameterError, match=f"^{re.escape('dataset.' + needle)}$"):
        config_from_dict(raw)
    with pytest.raises(ParameterError, match=f"^{re.escape(needle)}$"):
        small_config(tmp_path, **shape)


def test_config_out_dir_must_be_a_string(tmp_path):
    # A config file gives out_dir as a JSON string; a library caller's path
    # object or number is refused rather than kept as given.
    cfg = small_config(tmp_path / "out")
    with pytest.raises(ParameterError, match="out_dir: expected a string, got PosixPath"):
        replace(cfg, out_dir=tmp_path / "out")
    with pytest.raises(ParameterError, match="out_dir: expected a string, got 5"):
        replace(cfg, out_dir=5)


REQUIRED_FIELDS = [
    *(
        (load_config, path)
        for path in (
            "dataset",
            "dataset.n_devices",
            "dataset.m",
            "dataset.d",
            "dataset.o",
            "straggler_p",
            "noise",
            "noise.sigma1_sq",
            "noise.sigma2_sq",
            "policy",
            "policy.kind",
            "schedule",
            "schedule.kind",
            "schedule.c",
            "steps",
            "master_seed",
            "replicates",
            "out_dir",
        )
    ),
    *(
        (load_tradeoff_config, path)
        for path in (
            "p",
            "n_devices",
            "beta_sq",
            "c_sq",
            "d",
            "o",
            "lambda",
            "steps",
            "policies[0].kind",
            "policies[1].alpha",
            "out_dir",
        )
    ),
]


@pytest.mark.parametrize(
    "load,path", REQUIRED_FIELDS, ids=[f"{load.__name__}-{path}" for load, path in REQUIRED_FIELDS]
)
def test_config_names_each_missing_field(tmp_path, load, path):
    raw = (raw_config_dict if load is load_config else raw_tradeoff_dict)(tmp_path / "out")
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    parent = raw
    for key in parents:
        parent = parent[key]
    del parent[last]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    with pytest.raises(ParameterError, match=f"^{re.escape(path)}: missing$"):
        load(config)


@pytest.mark.parametrize("load", [load_config, load_tradeoff_config])
def test_both_config_kinds_refuse_a_non_object(tmp_path, load):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    with pytest.raises(ParameterError, match=re.escape("config: expected an object, got [1, 2]")):
        load(config)


def test_config_parses_policy_kinds(tmp_path):
    raw = raw_config_dict(tmp_path)
    raw["policy"] = {"kind": "fixed", "alpha": 0.5}
    assert config_from_dict(raw).policy == FixedWeight(0.5)
    raw["policy"] = {"kind": "adaptive-oracle", "beta_sq": 2.0, "c_sq": 3.0}
    assert config_from_dict(raw).policy == AdaptiveOracle(2.0, 3.0)
    raw["policy"] = {"kind": "adaptive-oracle"}
    assert config_from_dict(raw).policy == OracleAuto(2.0)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda raw: raw["dataset"].pop("m"), "dataset.m"),
        (lambda raw: raw.pop("straggler_p"), "straggler_p"),
        (lambda raw: raw.__setitem__("straggler_p", 1.0), "straggler_p"),
        (lambda raw: raw["dataset"].__setitem__("m", 3), "dataset.m"),
        (lambda raw: raw.__setitem__("noise", {}), "noise"),
        (lambda raw: raw["policy"].__setitem__("kind", "nope"), "policy.kind"),
        (lambda raw: raw.__setitem__("schedule", {"kind": "inverse"}), "schedule.c"),
        (lambda raw: raw.__setitem__("replicates", 0), "replicates"),
        (lambda raw: raw.__setitem__("steps", "abc"), "steps"),
        (lambda raw: raw.__setitem__("noise_levels", 3), "noise_levels"),
        (lambda raw: raw.__setitem__("dataset", 7), "dataset"),
        # An integer field refuses a fractional part instead of truncating it,
        # and no number field reads a boolean.
        (lambda raw: raw.__setitem__("steps", 2.5), "steps: expected int, got 2.5"),
        (lambda raw: raw.__setitem__("replicates", 1.9), "replicates: expected int, got 1.9"),
        (
            lambda raw: raw["dataset"].__setitem__("n_devices", 100.5),
            "dataset.n_devices: expected int, got 100.5",
        ),
        (lambda raw: raw.__setitem__("steps", True), "steps: expected int, got True"),
        (lambda raw: raw.__setitem__("straggler_p", False), "straggler_p: expected float, got False"),
    ],
)
def test_config_errors_name_field_paths(tmp_path, mutate, needle):
    raw = raw_config_dict(tmp_path)
    mutate(raw)
    with pytest.raises(ParameterError, match=needle.replace(".", r"\.")):
        config_from_dict(raw)


def test_config_accepts_integral_floats_for_int_fields(tmp_path):
    raw = raw_config_dict(tmp_path)
    raw["steps"] = 1000.0
    raw["dataset"]["n_devices"] = 3.0
    cfg = config_from_dict(raw)
    assert cfg.steps == 1000 and type(cfg.steps) is int
    assert cfg.n_devices == 3 and type(cfg.n_devices) is int


def test_config_noise_levels_errors_name_the_entry(tmp_path):
    with pytest.raises(ParameterError, match=r"noise_levels\[1\]: expected float, got 'a'"):
        small_config(tmp_path, noise_levels=(0.5, "a"))
    with pytest.raises(ParameterError, match="noise_levels: expected a list"):
        small_config(tmp_path, noise_levels=0.5)
    assert small_config(tmp_path, noise_levels=["1", 2]).noise_levels == (1.0, 2.0)


def test_config_rejects_repeated_noise_levels(tmp_path):
    # A repeated level used to write its comparison rows twice while the
    # records and win rates kept one entry for it.
    with pytest.raises(ParameterError, match=r"noise_levels\[2\]: repeats the level 1.0"):
        small_config(tmp_path, noise_levels=(1.0, 0.5, 1.0))
    with pytest.raises(ParameterError, match=r"noise_levels\[1\]"):
        compare_baselines(replace(small_config(tmp_path), noise_levels=(2.0, 2.0)))
    assert not (tmp_path / "comparison.csv").exists()


def test_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParameterError, match="invalid JSON"):
        load_config(path)


def test_config_resolves_noise_from_epsilon(tmp_path):
    raw = raw_config_dict(tmp_path)
    raw["noise"] = {"epsilon": 2.0}
    noise = config_from_dict(raw).noise
    assert noise == sigma_for_epsilon(2.0, 3, 2)
    assert noise.sigma1_sq == noise.sigma2_sq > 0


# ------------------------------------------------------------------- runner


def test_run_experiment_artifacts(tmp_path):
    cfg = small_config(tmp_path / "run")
    result = run_experiment(cfg)
    trace_lines = result.trace_path.read_text().splitlines()
    assert trace_lines[0] == "replicate,t,alpha_t,n_present,loss,dist_sq,grad_norm_sq"
    assert len(trace_lines) == 1 + cfg.replicates * cfg.steps
    summary_lines = result.summary_path.read_text().splitlines()
    assert summary_lines[0] == "t,mean_loss,stderr_loss,mean_dist_sq,stderr_dist_sq"
    assert len(summary_lines) == 1 + cfg.steps
    assert len(result.records) == cfg.replicates


def test_run_experiment_deterministic_and_parallel_safe(tmp_path):
    digests = []
    for name in ("a", "b", "c"):
        cfg = small_config(tmp_path / name, steps=12, replicates=4)
        result = run_experiment(cfg)
        digests.append(
            (
                hashlib.sha256(result.trace_path.read_bytes()).hexdigest(),
                hashlib.sha256(result.summary_path.read_bytes()).hexdigest(),
            )
        )
    assert digests[0] == digests[1] == digests[2]


def test_run_experiment_empty_edge(tmp_path):
    cfg = small_config(tmp_path / "empty", steps=0, replicates=1)
    result = run_experiment(cfg)
    assert result.trace_path.read_text().splitlines() == [
        "replicate,t,alpha_t,n_present,loss,dist_sq,grad_norm_sq"
    ]
    assert result.summary_path.read_text().splitlines() == [
        "t,mean_loss,stderr_loss,mean_dist_sq,stderr_dist_sq"
    ]


def test_summary_recomputable_from_trace(tmp_path):
    cfg = small_config(tmp_path / "sum", steps=7, replicates=3)
    result = run_experiment(cfg)
    rows = [line.split(",") for line in result.trace_path.read_text().splitlines()[1:]]
    by_t: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        by_t.setdefault(int(row[1]), []).append((float(row[4]), float(row[5])))
    summary = [line.split(",") for line in result.summary_path.read_text().splitlines()[1:]]
    for row in summary:
        t = int(row[0])
        losses = np.array([v[0] for v in by_t[t]])
        dists = np.array([v[1] for v in by_t[t]])
        r = len(losses)
        assert float(row[1]) == pytest.approx(losses.mean(), abs=1e-12)
        assert float(row[2]) == pytest.approx(losses.std(ddof=1) / np.sqrt(r), abs=1e-12)
        assert float(row[3]) == pytest.approx(dists.mean(), abs=1e-12)
        assert float(row[4]) == pytest.approx(dists.std(ddof=1) / np.sqrt(r), abs=1e-12)


def test_resolve_policy_probes_oracle_constants(tmp_path):
    cfg = small_config(tmp_path / "auto", policy=OracleAuto(margin=2.0), steps=20)
    ((noise, policy),) = resolve_policy(cfg, [cfg.noise], [cfg.policy])
    assert noise == cfg.noise
    assert isinstance(policy, AdaptiveOracle)
    assert policy.beta_sq > 0 and policy.c_sq > 0
    result = run_experiment(cfg)
    # The run's records hold only the columns its CSVs read: retrain the same
    # replicates recording every column, which changes no other value.
    audited = harness._run_group(
        cfg, [(cfg.noise, result.policy)], range(cfg.replicates), TRACE_COLUMNS
    )
    for rec, (again,) in zip(result.records, audited, strict=True):
        assert rec.trace.max_device_grad_sq is None and rec.trace.w_norm_sq is None
        for name in ("n_present", *RUN_COLUMNS, "w0", "final_w"):
            assert np.array_equal(getattr(rec.trace, name), getattr(again.trace, name)), name
        assert rec.trace.mask_digest == again.trace.mask_digest
        assert rec.final_loss == again.final_loss
    # realized norms stay within the probed constants on this config
    for (again,) in audited:
        assert again.trace.max_device_grad_sq.max() <= result.policy.beta_sq
        assert again.trace.w_norm_sq.max() <= result.policy.c_sq


# ------------------------------------------------------------------ compare


def test_compare_rows_and_pairing(tmp_path):
    cfg = small_config(tmp_path / "cmp", replicates=3, steps=10)
    result = compare_baselines(replace(cfg, noise_levels=(0.5, 2.0)))
    lines = result.path.read_text().splitlines()
    assert lines[0] == "noise_sigma_sq,method,seed,final_loss"
    assert len(lines) == 1 + 2 * 2 * 3  # levels x methods x seeds
    for level in (0.5, 2.0):
        recs_a = result.records[(level, "acfl")]
        recs_b = result.records[(level, "na")]
        for ra, rb in zip(recs_a, recs_b):
            assert ra.trace.mask_digest == rb.trace.mask_digest
            assert np.array_equal(ra.trace.w0, rb.trace.w0)
        assert 0.0 <= result.win_rates[level] <= 1.0
    # Every arm of a replicate trains in one loop; each row must equal a
    # single-arm run on the same streams, whose dataset and coded sums both
    # methods of a level share: the final iterate bit for bit, the loss
    # (computed from the samples here) within rtol.
    root = RngStream(cfg.master_seed)
    for level, method, r, final_loss in result.rows:
        record = result.records[(level, method)][r]
        assert record.replicate == r
        ds = generate(cfg.n_devices, cfg.m, cfg.d, cfg.o, root.child("dataset", r))
        noise = NoiseParams(level, level)
        (gc,) = encode_levels(ds, [noise], root.child("encode", r))
        policy = cfg.policy if method == "acfl" else cfg.baseline
        ((tr,),) = train(
            [ds], [[gc]], [policy], cfg.straggler_p, cfg.steps, [cfg.schedule],
            [root.child("train", r)], [optimum(ds)],
        )
        assert np.array_equal(record.trace.final_w, tr.final_w), (level, method, r)
        xs, ys, _ = replay_samples(cfg.n_devices, cfg.m, cfg.d, cfg.o, root.child("dataset", r))
        assert final_loss == pytest.approx(residual_loss(xs, ys, tr.final_w), rel=1e-10, abs=0.0)
    again = compare_baselines(
        replace(cfg, out_dir=str(tmp_path / "again"), noise_levels=(0.5, 2.0))
    )
    assert again.path.read_bytes() == result.path.read_bytes()


def _policies_trained(monkeypatch) -> list:
    """Patch ``harness.train`` to record, per call, the ``(noise, policy)`` of
    each replicate's arms, and the traces."""
    calls = []
    real_train = harness.train

    def recording_train(ds, coded, policies, *args, **kwargs):
        traces = real_train(ds, coded, policies, *args, **kwargs)
        calls.append(([[(c.noise, p) for c, p in zip(row, policies)] for row in coded], traces))
        return traces

    monkeypatch.setattr(harness, "train", recording_train)
    return calls


@pytest.mark.parametrize(
    "policy", [AdaptiveOracle(4.0, 2.0), OracleAuto(2.0)], ids=["given", "auto"]
)
def test_compare_runs_the_configured_policy(tmp_path, monkeypatch, policy):
    # An oracle policy is not swapped for estimated weights: the acfl arm
    # trains with oracle constants, given or from a per-level probe, and the
    # na arm with the fixed baseline.
    calls = _policies_trained(monkeypatch)
    cfg = small_config(tmp_path / "orc", policy=policy, replicates=2, steps=6)
    levels = (0.5, 2.0)
    compare_baselines(replace(cfg, noise_levels=levels))
    trained = calls[-1][0]  # the oracle probes below train too
    expect = []
    for level in levels:
        noise = NoiseParams(level, level)
        ((_, oracle),) = resolve_policy(cfg, [noise], [policy])
        if isinstance(policy, AdaptiveOracle):
            assert oracle == policy
        expect += [(noise, oracle), (noise, FixedWeight(0.5))]
    assert trained == [expect] * cfg.replicates


def test_compare_probes_every_level_in_one_call(tmp_path, monkeypatch):
    # With both methods auto-oracle, one probe call trains replicate 0 at
    # every level; each method takes its constants from it with its own margin.
    # Then one call trains both replicates, four arms each.
    calls = _policies_trained(monkeypatch)
    cfg = small_config(
        tmp_path / "probe", policy=OracleAuto(2.0), baseline=OracleAuto(3.0), replicates=2, steps=6
    )
    levels = (0.5, 2.0)
    compare_baselines(replace(cfg, noise_levels=levels))
    assert [[len(row) for row in arms] for arms, _ in calls] == [[2], [4, 4]]
    (probe,) = calls[0][1]
    expect = [
        (
            NoiseParams(level, level),
            AdaptiveOracle(
                float(trace.max_device_grad_sq.max()) * margin,
                float(trace.w_norm_sq.max()) * margin,
            ),
        )
        for level, trace in zip(levels, probe)
        for margin in (2.0, 3.0)
    ]
    assert calls[1][0] == [expect] * cfg.replicates
    assert all(trace.alpha is None for replicate in calls[1][1] for trace in replicate)


def test_a_diverging_compare_names_its_iteration(tmp_path):
    # compare records no trace column, yet still checks each block's weights
    # and ||D_t||^2: it names the first iteration (and its arm and replicate)
    # at which an arm trained alone, recording those two columns, has a
    # non-finite one, and warns of nothing (the suite makes a warning an
    # error).  Steps of 40 / t diverge inside the second mask block.
    cfg = small_config(
        tmp_path / "div", n_devices=6, m=12, d=3, o=2, straggler_p=0.2,
        schedule=InverseDecay(40.0), steps=300, replicates=2, noise_levels=(0.1, 1.0),
    )
    with pytest.raises(NumericError) as err:
        compare_baselines(cfg)
    match = re.fullmatch(
        r"training diverged at iteration (\d+) in arm (\d+) \(.*\) of replicate (\d+): "
        r"a non-finite loss, weight or norm \(last finite loss: (.+)\)",
        str(err.value),
    )
    assert match, str(err.value)
    named = tuple(int(x) for x in match.groups()[:3])
    assert math.isfinite(float(match.group(4)))
    assert not (tmp_path / "div").exists()
    noises = [NoiseParams(level, level) for level in cfg.noise_levels]
    arms = resolve_policy(cfg, noises, [cfg.policy, cfg.baseline])
    root = RngStream(cfg.master_seed)
    first = []
    for r in range(cfg.replicates):
        ds = generate(cfg.n_devices, cfg.m, cfg.d, cfg.o, root.child("dataset", r))
        coded = dict(zip(noises, encode_levels(ds, noises, root.child("encode", r))))
        for j, (noise, policy) in enumerate(arms):
            with pytest.raises(NumericError) as alone:
                train(
                    [ds], [[coded[noise]]], [policy], cfg.straggler_p, cfg.steps,
                    [cfg.schedule], [root.child("train", r)], [optimum(ds)],
                    columns=("alpha", "dist_sq"),
                )
            t = int(re.search(r"iteration (\d+) in arm 0 ", str(alone.value)).group(1))
            first.append((t, r, j))
    t, r, j = min(first)
    assert named == (t, j, r)
    assert MASK_CHUNK_ROWS < t < cfg.steps


def _artifacts(out_dir) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(Path(out_dir).glob("*.csv"))}


@pytest.mark.parametrize("per_group", [1, 2])
def test_replicate_groups_do_not_change_artifacts(tmp_path, monkeypatch, per_group):
    # A smaller Gram budget splits the replicates into more train calls
    # (groups of 1, or of 2 with a shorter last group); the files stay the same.
    calls = []
    real_train = harness.train

    def counting_train(ds, *args, **kwargs):
        calls.append(len(ds))
        return real_train(ds, *args, **kwargs)

    monkeypatch.setattr(harness, "train", counting_train)
    cfg = small_config(tmp_path / "whole", replicates=3, steps=30, policy=OracleAuto())
    run_experiment(cfg)
    compare_baselines(cfg)
    assert calls == [1, 3, 1, 3]  # probe, replicates; per command
    gram_bytes = cfg.n_devices * cfg.d * (cfg.d + cfg.o) * 8
    monkeypatch.setattr(harness, "GROUP_GRAM_BYTES", per_group * gram_bytes + gram_bytes - 1)
    calls.clear()
    split = replace(cfg, out_dir=str(tmp_path / "split"))
    run_experiment(split)
    compare_baselines(split)
    groups = [1, 1, 1] if per_group == 1 else [2, 1]
    assert calls == [1, *groups, 1, *groups]
    assert _artifacts(tmp_path / "split") == _artifacts(tmp_path / "whole")
    assert len(_artifacts(tmp_path / "whole")) == 3


@pytest.mark.parametrize("per_group", [1, 3])
def test_memory_refusal_counts_the_bytes_the_records_keep(tmp_path, monkeypatch, per_group):
    # The count the refusal reads, replicates times trace_bytes, equals the
    # bytes of the distinct arrays the records reach (per arm the recorded
    # trace columns and final_w, per replicate n_present and w0), for each
    # set of columns a command records, however the replicates are grouped
    # into train calls.
    cfg = small_config(tmp_path, replicates=3, steps=50)
    gram_bytes = cfg.n_devices * cfg.d * (cfg.d + cfg.o) * 8
    monkeypatch.setattr(harness, "GROUP_GRAM_BYTES", per_group * gram_bytes)
    arms = [(cfg.noise, AdaptiveEstimated()), (cfg.noise, FixedWeight(0.5))]
    for columns, expect in (
        (TRACE_COLUMNS[:-1], 13_632), (RUN_COLUMNS, 11_232), (PROBE_COLUMNS, 6_432), ((), 1_632)
    ):
        bases = {}
        for records in harness._run_replicates(cfg, arms, columns):
            for rec in records:
                for value in vars(rec.trace).values():
                    if isinstance(value, np.ndarray):
                        while value.base is not None:
                            value = value.base
                        bases[id(value)] = value
        held = sum(a.nbytes for a in bases.values())
        count = cfg.replicates * trace_bytes(len(arms), cfg.steps, cfg.d, cfg.o, columns)
        assert held == count == expect, columns


def test_auto_oracle_margin_must_be_finite():
    with pytest.raises(ParameterError, match=r"^margin: must be finite, got inf$"):
        OracleAuto(margin=math.inf)


def test_compare_encodes_each_replicate_once(tmp_path):
    # Both levels scale one noise draw per replicate: every arm's trace
    # equals, bit for bit, one train call on the same arm list whose coded
    # sums come from one-level encode_levels calls on the same stream.
    cfg = small_config(tmp_path / "enc", replicates=2)
    levels = (0.5, 2.0)
    result = compare_baselines(replace(cfg, noise_levels=levels))
    noises = [NoiseParams(level, level) for level in levels]
    arms = resolve_policy(cfg, noises, [cfg.policy, cfg.baseline])
    keys = [(level, method) for level in levels for method in harness.METHODS]
    root = RngStream(cfg.master_seed)
    for r in range(cfg.replicates):
        ds = generate(cfg.n_devices, cfg.m, cfg.d, cfg.o, root.child("dataset", r))
        coded = {
            noise: encode_levels(ds, [noise], root.child("encode", r))[0] for noise in noises
        }
        ((*traces,),) = train(
            [ds], [[coded[noise] for noise, _ in arms]], [policy for _, policy in arms],
            cfg.straggler_p, cfg.steps, [cfg.schedule], [root.child("train", r)], [optimum(ds)],
        )
        for key, tr in zip(keys, traces, strict=True):
            kept = result.records[key][r].trace
            for name in ("n_present", "w0", "final_w"):  # compare records no trace column
                assert getattr(tr, name).tobytes() == getattr(kept, name).tobytes(), name


def test_csv_rows_use_the_shortest_round_trip_repr(tmp_path, monkeypatch):
    cfg = small_config(tmp_path / "fmt", replicates=2, steps=4)
    result = run_experiment(cfg)
    # Rows converted in blocks of 3 (a short last block) give the same files.
    monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", 3)
    run_experiment(replace(cfg, out_dir=str(tmp_path / "blocks")))
    assert _artifacts(tmp_path / "blocks") == _artifacts(tmp_path / "fmt")
    rec = result.records[1]
    tr = rec.trace
    lines = result.trace_path.read_text().splitlines()
    assert lines[1 + cfg.steps + 2] == (
        f"1,2,{repr(float(tr.alpha[2]))},{int(tr.n_present[2])},{repr(float(tr.loss[2]))},"
        f"{repr(float(tr.dist_sq[2]))},{repr(float(tr.grad_norm_sq[2]))}"
    )
    summary = harness.summarize(result.records)
    assert result.summary_path.read_text().splitlines()[3] == "2," + ",".join(
        repr(float(x)) for x in summary[2]
    )
    compared = compare_baselines(replace(cfg, noise_levels=(0.5,)))
    level, method, seed, final_loss = compared.rows[0]
    assert compared.path.read_text().splitlines()[1] == (
        f"{repr(float(level))},{method},{seed},{repr(float(final_loss))}"
    )


def test_csv_constant_columns_write_the_per_cell_repr(tmp_path, monkeypatch):
    # A column of bitwise-identical values is formatted once; 0.0 and -0.0
    # differ in bits and stay apart, and a one-row table has no varying column.
    monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", 2)
    n = 5
    columns = (
        np.arange(n), np.full(n, 0.1), np.array([0.0, -0.0] * 2 + [0.0]),
        np.full(n, np.nan), np.linspace(-1.0, 1.0, n), np.full(n, 3),
    )
    tables = [columns, tuple(column[:1] for column in columns)]
    harness._write_csv(tmp_path / "t.csv", "h", tables)
    expected = ["h"] + [
        ",".join(repr(column[i].item()) for column in table)
        for table in tables for i in range(len(table[0]))
    ]
    assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"
    assert expected[2] == "1,0.1,-0.0,nan,-0.5,3"


def test_compare_single_level_single_replicate(tmp_path):
    cfg = small_config(tmp_path / "cmp1", replicates=1, steps=4)
    result = compare_baselines(replace(cfg, noise_levels=(1.0,)))
    lines = result.path.read_text().splitlines()
    assert len(lines) == 3  # header + one row per method


def test_compare_rejects_empty_levels(tmp_path):
    cfg = small_config(tmp_path / "cmp2")
    with pytest.raises(ParameterError):
        compare_baselines(replace(cfg, noise_levels=()))


def test_compare_noiseless_sanity(tmp_path):
    # with zero noise and no stragglers the methods differ only in the
    # weights, and full-batch descent at 1/(lam t) drives both to ~0
    cfg = small_config(
        tmp_path / "clean",
        n_devices=5,
        m=12,
        d=4,
        straggler_p=0.0,
        schedule=None,
        steps=2000,
        replicates=2,
    )
    result = compare_baselines(replace(cfg, noise_levels=(0.0,)))
    for _, _, _, final_loss in result.rows:
        assert final_loss < 1e-6
