"""The benchmark's workloads: one generated ``acfl`` config each.

Why each workload exists is stated in ``BENCHMARK.json`` and ``README.md``.

Every workload drives the CLI (``acfl run`` or ``acfl compare``) with
``--workers 1`` on a config whose ``master_seed`` is the benchmark's seed, so
the seed decides the dataset, coding noise and straggler masks and nothing
else.  Shapes are fixed here; the seed never changes how much work is done.
"""

from __future__ import annotations

from dataclasses import dataclass

# The adaptive arm and the baseline arm of a comparison, in the method names
# that ``comparison.csv`` uses.
COMPARE_METHODS = ("acfl", "na")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "compare"
    n_devices: int
    m: int
    d: int
    o: int
    straggler_p: float
    noise: dict
    policy: dict
    schedule: dict
    steps: int
    replicates: int
    baseline: dict | None = None
    noise_levels: tuple[float, ...] = ()
    # compare only: the noise level at which the adaptive mean final loss
    # must not exceed the baseline's (the paper's claim).
    claim_level: float | None = None

    def config(self, seed: int, out_dir: str) -> dict:
        """The JSON config the CLI reads."""
        cfg = {
            "dataset": {"n_devices": self.n_devices, "m": self.m, "d": self.d, "o": self.o},
            "straggler_p": self.straggler_p,
            "noise": self.noise,
            "policy": self.policy,
            "schedule": self.schedule,
            "steps": self.steps,
            "master_seed": seed,
            "replicates": self.replicates,
            "out_dir": out_dir,
        }
        if self.baseline is not None:
            cfg["baseline"] = self.baseline
        if self.noise_levels:
            cfg["noise_levels"] = list(self.noise_levels)
        return cfg

    def argv(self, config_path: str) -> list[str]:
        return [self.command, config_path, "--workers", "1"]

    @property
    def artifacts(self) -> tuple[str, ...]:
        if self.command == "compare":
            return ("comparison.csv",)
        return ("trace.csv", "summary.csv")

    @property
    def attempted_replicates(self) -> int:
        """Replicates one invocation is asked for, over every arm and noise level."""
        if self.command == "compare":
            return self.replicates * len(self.noise_levels) * len(COMPARE_METHODS)
        return self.replicates

    @property
    def replicate_steps(self) -> int:
        """Training iterations one invocation completes for its artifacts."""
        return self.attempted_replicates * self.steps

    @property
    def gram_bytes(self) -> int:
        """Computed bytes of the N per-device Gram pairs, d^2 + o*d doubles each.

        One encoding pass uploads this much, and each training step reads it.
        """
        return self.n_devices * (self.d * self.d + self.o * self.d) * 8


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref-compare",
            command="compare",
            n_devices=100,
            m=100,
            d=10,
            o=10,
            straggler_p=0.2,
            noise={"sigma1_sq": 0.1, "sigma2_sq": 0.1},
            policy={"kind": "adaptive-estimated"},
            baseline={"kind": "fixed", "alpha": 0.5},
            schedule={"kind": "inverse", "c": 1e-4},
            steps=2000,
            replicates=1,
            noise_levels=(0.1, 10.0),
            claim_level=10.0,
        ),
        Workload(
            name="fleet-setup",
            command="run",
            n_devices=4000,
            m=20,
            d=10,
            o=10,
            straggler_p=0.2,
            noise={"sigma1_sq": 1.0, "sigma2_sq": 1.0},
            policy={"kind": "fixed", "alpha": 0.5},
            schedule={"kind": "inverse", "c": 1e-5},
            steps=20,
            replicates=2,
        ),
        Workload(
            name="long-trace",
            command="run",
            n_devices=10,
            m=20,
            d=3,
            o=3,
            straggler_p=0.4,
            noise={"epsilon": 5.0},
            policy={"kind": "adaptive-oracle"},
            schedule={"kind": "strong-convexity"},
            steps=4000,
            replicates=4,
        ),
    )
}
