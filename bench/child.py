"""One benchmark invocation, in a fresh process started by ``run.py``.

Imports ``acfl`` from the checkout's ``src/``, writes the workload's config,
notes the moment it is ready to call ``acfl.cli.cli_main``, runs the CLI once
(traced, or untraced under the speed probe of ``speed.py``) and writes
``result.json`` (plus ``spans.json`` when traced) into its work directory.  A child that cannot import the program writes no
result, which the parent treats as fatal.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--spec", required=True, help="workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    import acfl.cli

    if Path(acfl.__file__).resolve().parent.parent != src:
        raise SystemExit(f"acfl imported from {acfl.__file__}, not from {src}")

    from speed import SpeedProbe
    from spans import ROOT, Tracer
    from workloads import Workload

    wl = Workload(**json.loads(args.spec))
    workdir = Path(args.workdir)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(wl.config(args.seed, str(workdir / "out")), indent=2))
    ready = time.monotonic()

    # A traced invocation measures layers and carries no probe, so that its
    # spans hold only the program's time; an untraced one carries the probe.
    tracer = Tracer()
    probe = SpeedProbe()
    cli_main = acfl.cli.cli_main
    if args.trace:
        tracer.install()
        cli_main = tracer.wrap(cli_main, ROOT)
    else:
        probe.start()
    start = time.perf_counter()
    try:
        rc = cli_main(wl.argv(str(config_path)))
    except Exception:
        # A crash inside the program fails this invocation's replicates;
        # the parent reads the traceback from stderr.txt.
        traceback.print_exc()
        rc = -1
    finally:
        probe.stop()
        wall = time.perf_counter() - start
    probe.top_up()

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result = {
        "rc": rc,
        "ready_monotonic": ready,
        # Wall time of the program alone: the probe's samples are taken out.
        "wall_s": wall - probe.inside_s,
        "probe_s": probe.inside_s,
        "slowness": probe.slowness(),
        "kernel_mean_s": {k: statistics.mean(v) for k, v in probe.samples.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": tracer.absent,
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {
                k: os.environ.get(k)
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
    }
    if args.trace:
        with open(workdir / "spans.json", "w") as f:
            json.dump(tracer.spans, f)
    with open(workdir / "result.json", "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
