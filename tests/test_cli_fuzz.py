"""Fuzzing the config-file commands: any JSON value given as a ``run``,
``compare`` or ``tradeoff`` config either runs (exit 0) or fails with a
typed error (exit 2), never with an uncaught exception or a traceback.

The generated configs are mostly config-shaped, with any field replaced by
a wild JSON value, so they reach every stage of the commands.  Shapes are
at most 12 (devices, samples, dimensions, replicates) and ``steps`` at most
100, so no config allocates more than a few MB or trains long; the other
numbers (probabilities, variances, weights, seeds, schedule constants) may
be any JSON number, including NaN and the infinities that Python's ``json``
reads.  One file in four also carries bytes that are not UTF-8.  The
command line itself is always well formed, so the usage-error exit code 1
cannot arise.
"""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from acfl.cli import cli_main

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-320, 1e308])
# Wild values that stay small when read as a size.
SMALL = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(-3.0, 12.0)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=4)
    | st.lists(st.integers(0, 3), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2)
)
# Wild values for fields that are not sizes: any number at all.
ANY = SMALL | SPECIAL | st.floats(allow_nan=True) | st.integers()
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


POLICY = st.one_of(
    st.fixed_dictionaries({"kind": st.just("fixed"), "alpha": st.floats(0.0, 1.0)}),
    st.fixed_dictionaries(
        {"kind": st.just("adaptive-estimated")},
        optional={"fallback_alpha": st.floats(0.0, 1.0)},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("adaptive-oracle")},
        optional={"beta_sq": st.floats(0.1, 10.0), "c_sq": st.floats(0.1, 10.0)},
    ),
    st.fixed_dictionaries({"kind": st.just("adaptive-oracle"), "margin": st.floats(1.0, 3.0)}),
)
NOISE = st.one_of(
    st.fixed_dictionaries({"sigma1_sq": st.floats(0.0, 10.0), "sigma2_sq": st.floats(0.0, 10.0)}),
    st.fixed_dictionaries({"epsilon": st.floats(0.1, 100.0)}),
)
SCHEDULE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("inverse"), "c": st.floats(1e-4, 1e-2)}),
    st.just({"kind": "strong-convexity"}),
)


def _paths(value, prefix=()):
    """Every key or index path into nested dicts and lists, parents first."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


@st.composite
def _mutated(draw, config: dict, sizes: frozenset):
    """``config`` with up to two fields deleted or replaced by wild values;
    a field in ``sizes`` (named by its first key) only ever gets a small one."""
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(config))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = config
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(SMALL if path[0] in sizes else ANY)
    return config


SIZES = frozenset({"dataset", "steps", "replicates"})


@st.composite
def experiment_configs(draw):
    d = draw(st.integers(1, 4))
    config = {
        "dataset": {
            "n_devices": draw(st.integers(1, 5)),
            "m": draw(st.integers(d + 1, d + 6)),
            "d": d,
            "o": draw(st.integers(1, 4)),
        },
        "straggler_p": draw(st.floats(0.0, 0.9)),
        "noise": draw(NOISE),
        "policy": draw(POLICY),
        "baseline": draw(POLICY),
        "schedule": draw(SCHEDULE),
        "steps": draw(st.integers(0, 100)),
        "master_seed": draw(st.integers(0, 2**32)),
        "replicates": draw(st.integers(1, 3)),
        "out_dir": "out",
        "noise_levels": draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3, unique=True)),
    }
    return draw(_mutated(config, SIZES))


@st.composite
def tradeoff_configs(draw):
    policy = st.one_of(
        st.just({"kind": "adaptive"}),
        st.fixed_dictionaries({"kind": st.just("fixed"), "alpha": st.floats(0.0, 1.0)}),
    )
    config = {
        "p": draw(st.floats(0.0, 0.9)),
        "n_devices": draw(st.integers(1, 100)),
        "beta_sq": draw(st.floats(0.1, 100.0)),
        "c_sq": draw(st.floats(0.1, 100.0)),
        "d": draw(st.integers(1, 100)),
        "o": draw(st.integers(1, 100)),
        "lambda": draw(st.floats(0.1, 10.0)),
        "steps": draw(st.integers(1, 10**6)),
        "out_dir": "curves",
        "sigma_grid": draw(st.lists(st.floats(1e-3, 1e3), max_size=4)),
        "policies": draw(st.lists(policy, max_size=3)),
    }
    # Everything here is analytic: no value makes the curves large.
    return draw(_mutated(config, frozenset()))


@contextlib.contextmanager
def _inside(directory: str):
    """Run with ``directory`` as the working directory, so that an ``out_dir``
    that a wild value made relative lands there."""
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def _exit_code(command: str, content: bytes) -> int:
    with tempfile.TemporaryDirectory() as work, _inside(work):
        Path("config.json").write_bytes(content)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli_main([command, "config.json"])


FUZZ = settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])


# Byte sequences that are not UTF-8: a UTF-16 byte-order mark, a lone
# continuation byte, a truncated sequence, an encoded surrogate, a lead byte
# beyond U+10FFFF.
NOT_UTF8 = st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf5\x80\x80\x80"])


@st.composite
def config_files(draw, configs):
    """A config file's bytes: the config as UTF-8 JSON, in one draw of four
    with a sequence that is not UTF-8 spliced in anywhere."""
    content = json.dumps(draw(configs)).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(content)))
        content = content[:at] + draw(NOT_UTF8) + content[at:]
    return content


@FUZZ
@given(command=st.sampled_from(["run", "compare"]), data=st.data())
def test_experiment_commands_exit_cleanly_on_any_config(command, data):
    content = data.draw(config_files(st.one_of(experiment_configs(), JSON)))
    assert _exit_code(command, content) in (0, 2)


@FUZZ
@given(data=st.data())
def test_tradeoff_exits_cleanly_on_any_config(data):
    content = data.draw(config_files(st.one_of(tradeoff_configs(), JSON)))
    assert _exit_code("tradeoff", content) in (0, 2)


TINY_RUN = {
    "dataset": {"n_devices": 3, "m": 5, "d": 2, "o": 2},
    "straggler_p": 0.3,
    "noise": {"sigma1_sq": 0.5, "sigma2_sq": 0.5},
    "policy": {"kind": "adaptive-oracle"},
    "schedule": {"kind": "strong-convexity"},
    "steps": 20,
    "master_seed": 3,
    "replicates": 2,
    "out_dir": "out",
}
TINY_TRADEOFF = {
    "p": 0.1, "n_devices": 5, "beta_sq": 100.0, "c_sq": 1.0, "d": 10, "o": 10, "lambda": 1.0,
    "steps": 1000, "out_dir": "curves",
}


@pytest.mark.parametrize(
    "command, text",
    [
        ("run", json.dumps(TINY_RUN)),
        ("compare", json.dumps({**TINY_RUN, "noise_levels": [0.0, math.nan]})),
        ("run", json.dumps({**TINY_RUN, "schedule": {"kind": "inverse", "c": 1e300}})),
        ("run", "[1, 2]"),
        ("tradeoff", '{"p": NaN, "sigma_grid": [Infinity]}'),
        ("tradeoff", json.dumps({**TINY_TRADEOFF, "out_dir": None})),
    ],
    ids=[
        "run-oracle", "compare-nan-level", "run-diverges", "run-list", "tradeoff-nan",
        "tradeoff-null-out_dir",
    ],
)
def test_cli_process_exits_cleanly(tmp_path, command, text):
    # The same contract seen from outside: a process exit code, no traceback.
    (tmp_path / "config.json").write_text(text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "acfl.cli", command, "config.json"],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
