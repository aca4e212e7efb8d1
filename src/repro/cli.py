"""Command-line interface: ``python -m repro <command> [options]``.

Regenerates any paper figure's data from the terminal, e.g.::

    python -m repro fig2 --trials 5 --n-max 10000
    python -m repro fig6 --trials 25 --out results/

and exposes the sweep primitives directly::

    python -m repro required-queries --algorithm amp --n 2000 \
        --channel z --p 0.1 --check-every 8 --workers 4

The fault-scenario figures put corrupted measurements and unreliable
networks on the same sweep engine (seeded per trial, bit-identical on
every backend)::

    python -m repro robustness_degradation --fault-kind erasure \
        --fault-rate 0.0 0.2 0.4 0.6 0.8
    python -m repro robustness_loss --drop 0.0 0.1 0.3 0.5
    python -m repro robustness_comm --n-values 64 128 256

Use ``--full-scale`` to run the paper's complete grids (slow: the
original sweeps extend to n = 10^5) and ``--workers N`` to shard the
trials over N processes (``0`` = one per CPU) with bit-identical
output.

The sweep harness (:mod:`repro.experiments`) is imported only by the
commands that run it, so ``repro serve`` starts on the service alone.
The parser's figure, algorithm and backend names come from
:mod:`repro.utils.names`, which the harness's registries use too.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Callable, List, Optional

from repro.utils.config import ConfigError
from repro.utils.names import (
    BACKENDS,
    FIGURE_NAMES,
    REQUIRED_QUERIES_ALGORITHMS,
)
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

#: the paper's figures: what ``repro all`` regenerates
PAPER_FIGURES = tuple(name for name in FIGURE_NAMES if name.startswith("fig"))

#: channel constructors selectable on the command line
CHANNELS = ("z", "noiseless", "gaussian", "noisy")

#: corruption kinds of the degradation figure (CorruptionModel fields)
CORRUPTION_KINDS = ("erasure", "flip", "outlier", "dead")


def _checked_float(check: Callable[[float], float]):
    """argparse type: parse a float, then validate it with ``check``.

    A bad value exits 2 with a usage line, not a traceback.
    """

    def parse(text: str) -> float:
        try:
            return check(float(text))
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _finite_non_negative(value: float, name: str) -> float:
    value = check_non_negative(value, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _finite_positive(value: float, name: str) -> float:
    value = check_positive(value, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


#: fault-rate flags: a probability in [0, 1]
_probability = _checked_float(
    lambda v: check_probability(v, "probability", allow_one=True)
)


def _bounded_int(minimum: int, maximum: Optional[int] = None):
    """argparse type: an integer in ``[minimum, maximum]``.

    A bad value exits 2 with a usage line, not a traceback.
    """
    bounds = (
        f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    )

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < minimum or (maximum is not None and value > maximum):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


#: count flags (agents, trials, query budgets, strides, grid points)
_positive_int = _bounded_int(1)
#: flags where 0 means "none" or "auto" (workers, seeds, delays)
_non_negative_int = _bounded_int(0)


def _instance_parent() -> argparse.ArgumentParser:
    """Shared instance/channel options of the sweep subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--n", type=_positive_int, default=1000, help="number of agents"
    )
    parent.add_argument(
        "--k",
        type=_positive_int,
        default=None,
        help="number of 1-agents (default: sublinear n**theta)",
    )
    parent.add_argument(
        "--theta",
        type=_checked_float(lambda v: check_fraction(v, "theta")),
        default=0.25,
        help="sublinear exponent for k, in (0, 1)",
    )
    parent.add_argument(
        "--channel",
        choices=CHANNELS,
        default="z",
        help="noise channel (default: Z-channel)",
    )
    parent.add_argument(
        "--p",
        type=_checked_float(lambda v: check_probability(v, "p")),
        default=0.1,
        help="flip probability in [0, 1) (z / noisy)",
    )
    parent.add_argument(
        "--q",
        type=_checked_float(lambda v: check_probability(v, "q")),
        default=0.05,
        help="false-positive rate in [0, 1) (noisy)",
    )
    parent.add_argument(
        "--lam",
        type=_checked_float(lambda v: _finite_non_negative(v, "lam")),
        default=1.0,
        help="finite noise scale lambda >= 0 (gaussian)",
    )
    parent.add_argument(
        "--gamma", type=_positive_int, default=None, help="query size Gamma"
    )
    parent.add_argument(
        "--seed", type=_non_negative_int, default=2022, help="root seed"
    )
    parent.add_argument("--out", type=str, default=None, help="save JSON here")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce figures from 'Distributed Reconstruction of "
        "Noisy Pooled Data' (ICDCS 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # -- figure-style subcommands (fig2 .. fig7, all, ablation_design) --
    # One shared parent for the execution/output flags so the figure
    # and ablation subcommands can never drift apart on them; a second
    # parent holds the fig2-7 grid knobs the ablation does not accept.
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument(
        "--trials", type=_positive_int, default=None, help="trials per point"
    )
    execution.add_argument(
        "--seed", type=_non_negative_int, default=2022, help="root seed"
    )
    execution.add_argument(
        "--workers",
        type=_non_negative_int,
        default=None,
        help="worker processes for trial sharding; 0 = one per CPU "
        "(default: the REPRO_WORKERS env var, else 1 = serial); "
        "results are bit-identical for any worker count",
    )
    execution.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="sweep execution backend (default: the REPRO_BACKEND env "
        "var, else process when --workers > 1, serial otherwise); "
        "results are bit-identical on both backends",
    )
    execution.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="checkpoint directory for crash-safe resume: finished "
        "chunks and cells persist as they land and a re-run of the "
        "same sweep skips them (default: the REPRO_CHECKPOINT env "
        "var); results are bit-identical with or without",
    )
    execution.add_argument(
        "--out", type=str, default=None, help="save JSON/CSV here"
    )
    execution.add_argument(
        "--plot",
        action="store_true",
        help="render an ASCII plot of the result's series",
    )

    figures = argparse.ArgumentParser(add_help=False)
    figures.add_argument(
        "--n-min", type=_positive_int, default=100,
        help="smallest n on the grid (figs 2-4)",
    )
    figures.add_argument(
        "--n-max", type=_positive_int, default=10_000,
        help="largest n on the grid (figs 2-4)",
    )
    figures.add_argument(
        "--n-points", type=_positive_int, default=9,
        help="points on the n grid (figs 2-4)",
    )
    figures.add_argument(
        "--check-every",
        type=_positive_int,
        default=1,
        help="success-check stride of the incremental simulator",
    )
    figures.add_argument(
        "--algorithms",
        nargs="+",
        choices=REQUIRED_QUERIES_ALGORITHMS,
        default=None,
        help="required-m stopping rules to plot side by side (figs 2-5; "
        "default: greedy only)",
    )
    figures.add_argument(
        "--full-scale",
        action="store_true",
        help="use the paper's full grids (n up to 1e5, 100 trials)",
    )
    for name in PAPER_FIGURES + ("all",):
        fig_parser = sub.add_parser(
            name,
            parents=[execution, figures],
            help=(
                "regenerate all paper figures (fig2-fig7; the design "
                "ablation has its own subcommand)"
                if name == "all"
                else f"regenerate {name}"
            ),
        )
        fig_parser.set_defaults(figure=name)

    # -- design ablation: shares the execution flags but has its own
    # grid knobs (the fig2-7 n-grid / check-every / algorithms flags
    # do not apply and are rejected rather than silently ignored) -----
    ablation = sub.add_parser(
        "ablation_design",
        parents=[execution],
        help="pooling-design ablation: required m (success-rate "
        "crossing) for the with-replacement multigraph vs the "
        "constant-column-weight regular design, at matched edge budget",
    )
    ablation.add_argument(
        "--n-values", type=_positive_int, nargs="+", default=None,
        help="agent counts, one success-curve cell per (design, n) "
        "(default: 300 600 1200)",
    )
    ablation.add_argument(
        "--m-points", type=_positive_int, default=10,
        help="points on each per-n geometric m grid",
    )
    ablation.set_defaults(figure="ablation_design")

    # -- fault-scenario figures: dedicated parsers (the fig2-7 grid
    # knobs do not apply); fault rates are validated probabilities ------
    degradation = sub.add_parser(
        "robustness_degradation",
        parents=[execution],
        help="decoder degradation under rising measurement corruption: "
        "greedy vs AMP vs the channel-corrected two-stage repair path, "
        "one seeded corruption realization per trial",
    )
    degradation.add_argument(
        "--n", type=_positive_int, default=None,
        help="number of agents (default 300)",
    )
    degradation.add_argument(
        "--m", type=_positive_int, default=None,
        help="fixed query budget (default 0.6 n, above the clean "
        "phase transition)",
    )
    degradation.add_argument(
        "--fault-kind", choices=CORRUPTION_KINDS, default="erasure",
        help="corruption applied post-channel: erasure = results go "
        "missing, flip = adversarial mirror flips, outlier = "
        "heavy-tailed Cauchy shifts, dead = pool-agents die and their "
        "queries vanish",
    )
    degradation.add_argument(
        "--fault-rate", type=_probability, nargs="+", default=None,
        metavar="P",
        help="corruption rates in [0, 1], one sweep cell per "
        "(algorithm, rate) (default: 0.0 0.2 0.4 0.6 0.8)",
    )
    degradation.add_argument(
        "--algorithms", nargs="+", choices=REQUIRED_QUERIES_ALGORITHMS,
        default=None,
        help="decoders to compare (default: greedy amp twostage)",
    )
    degradation.set_defaults(figure="robustness_degradation")

    loss = sub.add_parser(
        "robustness_loss",
        parents=[execution],
        help="Algorithm 1 under query-broadcast message loss: seeded "
        "per-trial drop/delay faults on the distributed protocol, "
        "network metrics folded into the curve",
    )
    loss.add_argument(
        "--n", type=_positive_int, default=None,
        help="number of agents (default 128)",
    )
    loss.add_argument(
        "--m", type=_positive_int, default=None,
        help="query budget (default 220)",
    )
    loss.add_argument(
        "--drop", type=_probability, nargs="+", default=None, metavar="P",
        help="message drop probabilities in [0, 1], one distributed "
        "cell each (default: 0.0 0.1 0.3 0.5 0.7)",
    )
    loss.add_argument(
        "--delay", type=_probability, default=None, metavar="P",
        help="per-message delay probability (default 0; requires "
        "--max-delay >= 1)",
    )
    loss.add_argument(
        "--max-delay", type=_non_negative_int, default=None,
        help="largest extra delivery delay in rounds (default 0)",
    )
    loss.set_defaults(figure="robustness_loss")

    comm = sub.add_parser(
        "robustness_comm",
        parents=[execution],
        help="communication bill vs n: Algorithm 1 vs message-passing "
        "AMP at the same query budget (rounds / messages / bits from "
        "the network simulator)",
    )
    comm.add_argument(
        "--n-values", type=_positive_int, nargs="+", default=None,
        help="agent counts, one distributed and one distributed_amp "
        "cell each (default: 64 128 256)",
    )
    comm.add_argument(
        "--m-fraction",
        type=_checked_float(lambda v: _finite_positive(v, "m-fraction")),
        default=None,
        help="query budget per cell as a finite fraction > 0 of n "
        "(default 0.4)",
    )
    comm.set_defaults(figure="robustness_comm")

    # -- required-queries -----------------------------------------------
    instance = _instance_parent()
    rq = sub.add_parser(
        "required-queries",
        parents=[instance],
        help="required-m sweep: smallest m per trial under the chosen "
        "stopping rule (greedy separation, or the first exact AMP decode "
        "of an ascending scan over the --check-every grid)",
    )
    rq.add_argument(
        "--algorithm",
        choices=REQUIRED_QUERIES_ALGORITHMS,
        default="greedy",
        help="stopping rule (shared constant with the other subcommands)",
    )
    rq.add_argument(
        "--trials", type=_positive_int, default=10, help="independent trials"
    )
    rq.add_argument(
        "--check-every", type=_positive_int, default=1,
        help="success-check stride",
    )
    rq.add_argument(
        "--max-m", type=_positive_int, default=None,
        help="query budget per trial",
    )
    rq.add_argument(
        "--workers",
        type=_non_negative_int,
        default=None,
        help="worker processes (0 = one per CPU); bit-identical output",
    )
    rq.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="sweep execution backend (serial / process); "
        "bit-identical output on both backends",
    )
    rq.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="checkpoint directory for crash-safe resume (default: "
        "the REPRO_CHECKPOINT env var)",
    )

    # -- decode service --------------------------------------------------
    svc = sub.add_parser(
        "serve",
        help="online decode service: long-lived server keeping one "
        "incremental decode session per client and micro-batching "
        "concurrent AMP decode requests into single stacked calls "
        "(bit-identical to standalone decodes); sessions persist to "
        "--state-dir and survive crashes",
    )
    svc.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; use 0.0.0.0 to "
        "accept remote clients — trusted networks only, or share an "
        "--auth-token with every client: without one any peer that "
        "reaches the port can open, grow and decode sessions)",
    )
    svc.add_argument(
        "--port", type=_bounded_int(0, 65535), default=None,
        help="TCP port (default %(default)s -> service default; "
        "0 = ephemeral, printed in the ready banner)",
    )
    svc.add_argument(
        "--state-dir", default=None,
        help="directory for durable session logs (one append-only "
        "log per session, each ack flushed to the OS first); omit for "
        "in-memory sessions that do NOT survive a restart",
    )
    svc.add_argument(
        "--max-queue", type=_positive_int, default=None,
        help="decode queue bound; requests beyond it are shed with a "
        "retryable 'overloaded' error (default REPRO_SERVICE_MAX_QUEUE "
        "or 64)",
    )
    svc.add_argument(
        "--degrade-depth", type=_positive_int, default=None,
        help="queue depth at which AMP decodes degrade to the instant "
        "greedy scorer with degraded=True (default "
        "REPRO_SERVICE_DEGRADE_DEPTH or 16)",
    )
    svc.add_argument(
        "--max-batch", type=_positive_int, default=None,
        help="max decode requests stacked into one batched AMP call "
        "(default REPRO_SERVICE_MAX_BATCH or 16)",
    )
    svc.add_argument(
        "--deadline",
        type=_checked_float(lambda v: _finite_positive(v, "deadline")),
        default=None,
        help="default per-request decode budget in seconds; expired "
        "requests get a retryable 'deadline_exceeded' error (default "
        "REPRO_SERVICE_DEADLINE or unlimited)",
    )
    svc.add_argument(
        "--auth-token", type=str, default=None,
        help="shared token for frame HMAC authentication (default: "
        "the REPRO_AUTH_TOKEN env var)",
    )
    return parser


def _channel_from_args(args: argparse.Namespace):
    from repro.core.noise import (
        GaussianQueryNoise,
        NoiselessChannel,
        NoisyChannel,
        ZChannel,
    )

    if args.channel == "noiseless":
        return NoiselessChannel()
    if args.channel == "z":
        return ZChannel(args.p)
    if args.channel == "gaussian":
        return GaussianQueryNoise(args.lam)
    return NoisyChannel(args.p, args.q)


def _resolve_k(args: argparse.Namespace) -> int:
    if args.k is not None:
        return args.k
    from repro.core.ground_truth import sublinear_k

    return sublinear_k(args.n, args.theta)


def _run_required_queries(args: argparse.Namespace) -> int:
    from repro.experiments.runner import required_queries_trials
    from repro.experiments.tables import render_kv

    channel = _channel_from_args(args)
    k = _resolve_k(args)
    started = time.perf_counter()
    sample = required_queries_trials(
        args.n,
        k,
        channel,
        trials=args.trials,
        seed=args.seed,
        max_m=args.max_m,
        check_every=args.check_every,
        gamma=args.gamma,
        algorithm=args.algorithm,
        workers=args.workers,
        backend=args.backend,
    )
    elapsed = time.perf_counter() - started
    print(
        render_kv(
            f"required-queries ({sample.algorithm})",
            [
                ("algorithm", sample.algorithm),
                ("n", sample.n),
                ("k", sample.k),
                ("channel", sample.channel),
                ("trials", sample.trials),
                ("failures", sample.failures),
                ("required_m_median", sample.median),
                ("required_m_mean", sample.mean),
                ("values", sample.values),
            ],
        )
    )
    print(f"[required-queries] completed in {elapsed:.1f}s")
    if args.out:
        from pathlib import Path

        from repro.experiments.storage import save_json

        path = Path(args.out) / f"required_queries_{sample.algorithm}.json"
        save_json(path, sample)
        print(f"[required-queries] saved to {path}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.server import DEFAULT_PORT as DEFAULT_SERVICE_PORT
    from repro.service.server import serve as serve_decode
    from repro.service.wire import AUTH_TOKEN_ENV

    port = DEFAULT_SERVICE_PORT if args.port is None else args.port
    token = args.auth_token or os.environ.get(AUTH_TOKEN_ENV) or None
    auth = (
        "authenticated (shared token)"
        if token
        else f"integrity-only — set {AUTH_TOKEN_ENV} for authentication"
    )
    state = args.state_dir or "in-memory (no --state-dir: no crash recovery)"
    try:
        serve_decode(
            args.host,
            port,
            args.state_dir,
            token=token,
            max_queue=args.max_queue,
            degrade_depth=args.degrade_depth,
            max_batch=args.max_batch,
            default_deadline=args.deadline,
            ready=lambda host, bound: print(
                f"[serve] decode service listening on {host}:{bound} "
                f"[{auth}] state={state} (Ctrl-C to stop)",
                flush=True,
            ),
        )
    except KeyboardInterrupt:
        print("[serve] stopped", flush=True)
    except OSError as exc:
        print(f"[serve] error: {exc}", file=sys.stderr, flush=True)
        return 1
    return 0


#: per-figure plot axes: (x_key, y_key, log_x, log_y)
_PLOT_AXES = {
    "fig2": ("n", "required_m_median", True, True),
    "fig3": ("n", "required_m_median", True, True),
    "fig4": ("n", "required_m_median", True, True),
    "fig5": ("n", "median", True, True),
    "fig6": ("m", "success_rate", False, False),
    "fig7": ("m", "overlap", False, False),
    "ablation_design": ("n", "required_m_p50", True, True),
    "robustness_degradation": ("fault_rate", "success_rate", False, False),
    "robustness_loss": ("drop_rate", "overlap", False, False),
    "robustness_comm": ("n", "mean_messages", True, True),
}


def run_figure(name: str, **kwargs):
    """:func:`repro.experiments.figures.run_figure`, imported on use."""
    from repro.experiments.figures import run_figure as run

    return run(name, **kwargs)


def _figure_kwargs(args: argparse.Namespace, name: str) -> dict:
    from repro.experiments.stats import geometric_space

    kwargs: dict = {
        "seed": args.seed,
        "workers": args.workers,
        "backend": args.backend,
    }
    if name == "ablation_design":
        # The ablation's dedicated parser: its own (design, n) grid
        # knobs instead of the shared fig2-7 flags.
        if args.trials is not None:
            kwargs["trials"] = args.trials
        if args.n_values is not None:
            kwargs["n_values"] = tuple(args.n_values)
        kwargs["m_points"] = args.m_points
        return kwargs
    if name.startswith("robustness_"):
        # Dedicated parsers as well.
        if args.trials is not None:
            kwargs["trials"] = args.trials
        optional = {
            "robustness_degradation": (
                ("n", "n"),
                ("m", "m"),
                ("fault_kind", "kind"),
                ("fault_rate", "fault_rates"),
                ("algorithms", "algorithms"),
            ),
            "robustness_loss": (
                ("n", "n"),
                ("m", "m"),
                ("drop", "drop_rates"),
                ("delay", "delay"),
                ("max_delay", "max_delay"),
            ),
            "robustness_comm": (
                ("n_values", "n_values"),
                ("m_fraction", "m_fraction"),
            ),
        }[name]
        for attr, key in optional:
            value = getattr(args, attr)
            if value is not None:
                kwargs[key] = tuple(value) if isinstance(value, list) else value
        return kwargs
    if args.full_scale:
        if name in ("fig2", "fig3", "fig4"):
            kwargs["n_values"] = geometric_space(100, 100_000, 13)
            kwargs["trials"] = args.trials or 10
            kwargs["check_every"] = args.check_every
        elif name == "fig5":
            kwargs["n_values"] = (1_000, 10_000, 100_000)
            kwargs["trials"] = args.trials or 50
            kwargs["check_every"] = args.check_every
        else:
            kwargs["trials"] = args.trials or 100
    else:
        if name in ("fig2", "fig3", "fig4"):
            kwargs["n_values"] = geometric_space(args.n_min, args.n_max, args.n_points)
            kwargs["check_every"] = args.check_every
        if name == "fig5":
            kwargs["check_every"] = args.check_every
        if args.trials is not None:
            kwargs["trials"] = args.trials
    if args.algorithms is not None and name in ("fig2", "fig3", "fig4", "fig5"):
        kwargs["algorithms"] = tuple(args.algorithms)
    return kwargs


def _cross_flag_error(args: argparse.Namespace) -> Optional[str]:
    """Why two flags contradict each other, or ``None`` when they agree.

    Each flag is validated on its own at parse time; these are the
    pairs a single flag's type cannot see.
    """
    k = getattr(args, "k", None)
    if k is not None and k > args.n:
        return f"--k must be <= --n, got --k {k} --n {args.n}"
    n_min, n_max = getattr(args, "n_min", None), getattr(args, "n_max", None)
    if n_min is not None and n_min > n_max:
        return f"--n-min must be <= --n-max, got {n_min} > {n_max}"
    if getattr(args, "delay", None) and not getattr(args, "max_delay", None):
        return "--delay > 0 requires --max-delay >= 1"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    conflict = _cross_flag_error(args)
    if conflict is not None:
        parser.error(conflict)
    try:
        return _run(args)
    except ConfigError as exc:
        # A bad REPRO_* variable is a usage error like a bad flag: its
        # one-line message and exit status 2, not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    # Spawned pool workers inherit the environment, so the flag becomes
    # an env var before any dispatch.
    if getattr(args, "checkpoint", None):
        from repro.experiments.checkpoint import CHECKPOINT_ENV

        os.environ[CHECKPOINT_ENV] = args.checkpoint
    if args.command == "required-queries":
        return _run_required_queries(args)
    if args.command == "serve":
        return _run_serve(args)
    # `all` regenerates the paper's figures; the design ablation is an
    # add-on pipeline with its own grid and runs only by name.
    if args.figure == "all":
        names = list(PAPER_FIGURES)
    else:
        names = [args.figure]
    for name in names:
        started = time.perf_counter()
        result = run_figure(name, **_figure_kwargs(args, name))
        elapsed = time.perf_counter() - started
        print(result.render())
        if args.plot:
            from repro.experiments.plots import plot_figure_result

            x_key, y_key, log_x, log_y = _PLOT_AXES[name]
            print()
            print(
                plot_figure_result(
                    result, x_key=x_key, y_key=y_key, log_x=log_x, log_y=log_y
                )
            )
        print(f"[{name}] completed in {elapsed:.1f}s")
        if args.out:
            result.save(args.out)
            print(f"[{name}] saved to {args.out}/{name}.json|.csv")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
