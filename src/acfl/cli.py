"""Command-line front end.

Subcommands: ``run`` and ``compare`` drive config-file experiments,
``privacy`` converts between noise variance and epsilon (nats),
``tradeoff`` emits privacy/learning trade-off curves as CSV, and
``overhead`` prints the exact uplink bit counts.  Exit codes: 0 success,
1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import comm_overhead
from .coding import NoiseParams
from .errors import NumericError, ParameterError
from .harness import (
    compare_baselines,
    load_config,
    load_tradeoff_config,
    run_experiment,
    write_tradeoff_curves,
)
from .privacy import epsilon_of, sigma_for_epsilon


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


WORKERS_HELP = "accepted for compatibility; no effect (replicates train together in groups)"
_PRIVACY_DESCRIPTION = (
    "Convert between the encoding noise variance and epsilon (nats).  Epsilon bounds what one "
    "device's one-time coded upload (X'X + N1, X'Y + N2) reveals about each data entry, to a "
    "party that sees only the uploads or their coded sums.  It does not cover the exact "
    "gradients a present device reports to the server at every iteration, from which "
    "ceil(d/o) + 1 reports recover X'X and X'Y."
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="acfl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a config-file experiment")
    p_run.add_argument("config", help="JSON config file")
    p_run.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)

    p_cmp = sub.add_parser("compare", help="paired adaptive-vs-baseline comparison")
    p_cmp.add_argument("config", help="JSON config file")
    p_cmp.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)

    p_priv = sub.add_parser(
        "privacy", help="noise variance <-> epsilon (nats)", description=_PRIVACY_DESCRIPTION
    )
    p_priv.add_argument("--d", type=int, required=True, help="feature dimension")
    p_priv.add_argument("--o", type=int, required=True, help="label dimension")
    group = p_priv.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma-sq", type=float, help="common noise variance")
    group.add_argument("--epsilon", type=float, help="target privacy level in nats")

    p_trade = sub.add_parser("tradeoff", help="emit trade-off curves as CSV")
    p_trade.add_argument("config", help="JSON config file (see README for schema)")

    p_over = sub.add_parser("overhead", help="uplink bit counts")
    p_over.add_argument("--phi", type=int, required=True, help="bits per real")
    p_over.add_argument("--d", type=int, required=True)
    p_over.add_argument("--o", type=int, required=True)
    p_over.add_argument("--n", type=int, required=True, help="number of devices")
    p_over.add_argument("--t", type=int, required=True, help="training iterations")
    return parser


def _cmd_run(args) -> None:
    result = run_experiment(load_config(args.config))
    print(result.trace_path)
    print(result.summary_path)


def _cmd_compare(args) -> None:
    result = compare_baselines(load_config(args.config))
    print(result.path)
    for level in sorted(result.win_rates):
        print(f"win_rate[sigma_sq={level:g}]={result.win_rates[level]}")


def _cmd_privacy(args) -> None:
    if args.sigma_sq is not None:
        eps = epsilon_of(NoiseParams(args.sigma_sq, args.sigma_sq), args.d, args.o)
        print(f"epsilon_nats={eps!r}")
    else:
        noise = sigma_for_epsilon(args.epsilon, args.d, args.o)
        print(f"sigma_sq={noise.sigma1_sq!r}")


def _cmd_tradeoff(args) -> None:
    for path in write_tradeoff_curves(load_tradeoff_config(args.config)):
        print(path)


def _cmd_overhead(args) -> None:
    psi1, psi2, total = comm_overhead(args.phi, args.d, args.o, args.n, args.t)
    print(f"psi1={psi1} psi2={psi2} psi_total={total}")


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "privacy": _cmd_privacy,
    "tradeoff": _cmd_tradeoff,
    "overhead": _cmd_overhead,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        parser.print_usage(sys.stderr)
        print(f"acfl: error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](args)
    except (ParameterError, NumericError, OSError, MemoryError) as e:
        print(f"acfl: error: {e}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
