"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment``
    Regenerate one of the paper's tables/figures and print its rows
    (``table4``, ``table5``, ``fig8a``, ``fig8b``, ``fig9``, ``fig10``,
    ``fig11``, ``fig12``, ``micro``).
``generate``
    Produce a synthetic corpus (``cace`` or ``casas``) and write it as
    JSON for later runs.
``mine``
    Mine correlation rules from a stored corpus and save/print them.
``fit``
    Train an engine on a stored corpus and save it as a versioned model
    artifact (``repro.model/1`` JSON).
``recognize``
    Train on one stored corpus, decode another (or a held-out split), and
    report accuracy metrics.  With ``--model ART`` a saved artifact is
    served instead of training, and ``--stream`` decodes through the
    serving facade's per-session fixed-lag smoothers (``--lag``).

Every command accepts ``--seed`` for reproducibility; workloads default to
small sizes so a laptop run finishes in seconds to minutes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.util.rng import ensure_rng

#: experiment name -> (callable path, default kwargs)
_EXPERIMENTS = {
    "micro": ("micro_level_results", {}),
    "table4": ("table4_rules", {}),
    "table5": ("table5_duration_error", {}),
    "fig8a": ("fig8a_context_ablation", {}),
    "fig8b": ("fig8b_cost_curves", {}),
    "fig9": ("fig9_casas_per_class", {}),
    "fig10": ("fig10_model_comparison", {}),
    "fig11": ("fig11_pruning_strategies", {}),
    "fig12": ("fig12_incremental", {}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CACE (ICDCS 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp.add_argument("--seed", type=int, default=7)
    exp.add_argument("--homes", type=int, default=None, help="CACE homes / CASAS pairs")
    exp.add_argument("--sessions", type=int, default=None)
    exp.add_argument("--duration", type=float, default=None, help="session seconds")

    gen = sub.add_parser("generate", help="generate a synthetic corpus as JSON")
    gen.add_argument("corpus", choices=["cace", "casas"])
    gen.add_argument("output", help="output JSON path")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--homes", type=int, default=3, help="CACE homes / CASAS pairs")
    gen.add_argument("--sessions", type=int, default=4)
    gen.add_argument("--duration", type=float, default=3600.0)
    gen.add_argument("--residents", type=int, default=2, help="residents per CACE home")

    mine = sub.add_parser("mine", help="mine correlation rules from a stored corpus")
    mine.add_argument("corpus", help="corpus JSON path")
    mine.add_argument("--output", help="rule-set JSON path (prints rules otherwise)")
    mine.add_argument("--min-support", type=float, default=0.04)
    mine.add_argument("--min-confidence", type=float, default=0.99)

    fit = sub.add_parser("fit", help="train an engine, save a model artifact")
    fit.add_argument("corpus", help="training corpus JSON path")
    fit.add_argument("output", help="model artifact JSON path")
    fit.add_argument("--strategy", choices=["nh", "ncr", "ncs", "c2"], default="c2")
    fit.add_argument("--min-support", type=float, default=0.04)
    fit.add_argument("--min-confidence", type=float, default=0.99)
    fit.add_argument("--seed", type=int, default=7)

    rec = sub.add_parser("recognize", help="train + evaluate on a stored corpus")
    rec.add_argument("corpus", help="corpus JSON path")
    rec.add_argument("--strategy", choices=["nh", "ncr", "ncs", "c2"], default="c2")
    rec.add_argument("--train-fraction", type=float, default=0.7)
    rec.add_argument("--seed", type=int, default=7)
    rec.add_argument(
        "--model",
        help="saved model artifact; serves it on the whole corpus instead of training",
    )
    rec.add_argument(
        "--stream",
        action="store_true",
        help="decode via the serving facade's fixed-lag smoothers (needs --model)",
    )
    rec.add_argument(
        "--lag", type=int, default=4, help="smoothing lag in steps for --stream"
    )
    rec.add_argument(
        "--metrics-out",
        help="enable observability and write a metrics snapshot JSON "
        "(decode latency histograms, smoother cache hit rate, session "
        "gauges, run provenance) to this path",
    )
    rec.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the offline --model batch decode",
    )
    rec.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-session decode timeout in seconds (--model)",
    )
    rec.add_argument(
        "--retries",
        type=int,
        default=None,
        help="max retries per failed session (--model; default 2)",
    )
    rec.add_argument(
        "--partial",
        action="store_true",
        help="serve what succeeded: evaluate completed sessions and report "
        "the failures instead of erroring out (--model)",
    )
    rec.add_argument(
        "--failures-out",
        help="write the batch FailureReport JSON to this path (--model)",
    )

    return parser


def _run_experiment(args: argparse.Namespace) -> int:
    from repro.eval import experiments as exp_mod

    func_name, defaults = _EXPERIMENTS[args.name]
    func = getattr(exp_mod, func_name)
    kwargs = dict(defaults)
    kwargs["seed"] = args.seed
    if args.name == "fig9":
        if args.homes is not None:
            kwargs["n_pairs"] = args.homes
        if args.sessions is not None:
            kwargs["sessions_per_pair"] = args.sessions
    elif args.name != "micro":
        if args.homes is not None:
            kwargs["n_homes"] = args.homes
        if args.sessions is not None:
            kwargs["sessions_per_home"] = args.sessions
        if args.duration is not None:
            kwargs["duration_s"] = args.duration
    result = func(**kwargs)
    print(result.render())
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    from repro.util.serialization import save_dataset

    if args.corpus == "cace":
        from repro.datasets.cace import generate_cace_dataset

        dataset = generate_cace_dataset(
            n_homes=args.homes,
            sessions_per_home=args.sessions,
            duration_s=args.duration,
            residents_per_home=args.residents,
            seed=args.seed,
        )
    else:
        from repro.datasets.casas import generate_casas_dataset

        dataset = generate_casas_dataset(
            n_pairs=args.homes,
            sessions_per_pair=args.sessions,
            seed=args.seed,
        )
    save_dataset(dataset, args.output)
    print(
        f"wrote {dataset.name}: {len(dataset.sequences)} sequences, "
        f"{dataset.total_steps} steps -> {args.output}"
    )
    return 0


def _run_mine(args: argparse.Namespace) -> int:
    from repro.mining.correlation_miner import CorrelationMiner
    from repro.util.serialization import load_dataset, save_rule_set

    dataset = load_dataset(args.corpus)
    miner = CorrelationMiner(
        min_support=args.min_support, min_confidence=args.min_confidence
    )
    rule_set = miner.mine(dataset.sequences)
    if args.output:
        save_rule_set(rule_set, args.output)
        print(f"wrote {rule_set.n_rules} rules -> {args.output}")
    else:
        print(rule_set.describe(limit=40))
        print(f"({rule_set.n_rules} rules total)")
    return 0


def _run_fit(args: argparse.Namespace) -> int:
    from repro.core.engine import CaceEngine
    from repro.util.serialization import load_dataset

    dataset = load_dataset(args.corpus)
    engine = CaceEngine(
        strategy=args.strategy,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        seed=args.seed,
    )
    engine.fit(dataset)
    engine.save(args.output)
    print(
        f"fitted on {len(dataset.sequences)} sequences in "
        f"{engine.build_seconds:.2f}s -> {args.output}"
    )
    print(engine.describe())
    return 0


def _registry_snapshot() -> dict:
    """The process-wide registry's snapshot with its derived rates (the
    router-less shape of :meth:`SessionRouter.metrics_snapshot`)."""
    from repro.obs import runtime as obs_runtime
    from repro.serve.router import derived_metrics

    registry = obs_runtime.get_registry()
    return {"derived": derived_metrics(registry), "metrics": registry.snapshot()}


def _write_metrics_snapshot(path: str, snapshot: dict) -> None:
    """Write an observability snapshot (plus run provenance) as JSON."""
    import json

    from repro.obs import provenance

    payload = dict(snapshot)
    payload["provenance"] = provenance()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote metrics snapshot -> {path}")


def _run_serve_artifact(args: argparse.Namespace) -> int:
    """``recognize --model``: evaluate a saved artifact on a whole corpus."""
    from repro.core.engine import CaceEngine
    from repro.eval.experiments import pair_results, pool_labels
    from repro.eval.metrics import evaluate_predictions
    from repro.util.serialization import load_dataset

    if args.metrics_out:
        from repro.obs import runtime as obs_runtime

        obs_runtime.enable(metrics=True)
    dataset = load_dataset(args.corpus)
    engine = CaceEngine.load(args.model)
    router = None
    if args.stream:
        from repro.serve import SessionRouter

        router = SessionRouter(engine, lag=args.lag)

        def predict(seq):
            sid = f"{seq.home_id}:{id(seq)}"
            for step in seq.steps:
                router.push(sid, step)
            return router.close_session(sid)

        truth, predicted = pool_labels((seq, predict(seq)) for seq in dataset.sequences)
    else:
        # Offline serving goes through the fault-tolerant batch decode so
        # --workers/--timeout/--retries/--partial all apply.
        from repro.resilience import DecodeFailure, RetryPolicy

        retry = None
        if args.retries is not None:
            retry = RetryPolicy(max_retries=args.retries)
        try:
            results = engine.predict_dataset(
                dataset,
                workers=args.workers,
                timeout_s=args.timeout,
                retry=retry,
                partial=args.partial,
            )
        except DecodeFailure as exc:
            print(exc.report.describe(), file=sys.stderr)
            if args.failures_out:
                exc.report.save(args.failures_out)
                print(f"wrote failure report -> {args.failures_out}")
            return 1
        freport = engine.failure_report_
        truth, predicted = pool_labels(pair_results(dataset, results))
        if freport is not None and not freport.ok():
            print(freport.describe(), file=sys.stderr)
        if args.failures_out and freport is not None:
            freport.save(args.failures_out)
            print(f"wrote failure report -> {args.failures_out}")
    report = evaluate_predictions(truth, predicted, list(dataset.macro_vocab))
    print(report.render())
    mode = f"streamed (lag={args.lag})" if args.stream else "offline"
    print(f"{mode} with {engine.describe()}")
    if args.metrics_out:
        if router is not None:
            _write_metrics_snapshot(args.metrics_out, router.metrics_snapshot())
        else:
            _write_metrics_snapshot(args.metrics_out, _registry_snapshot())
    return 0


def _run_recognize(args: argparse.Namespace) -> int:
    from repro.core.engine import CaceEngine
    from repro.datasets.trace import train_test_split
    from repro.eval.experiments import evaluate_engine
    from repro.util.serialization import load_dataset

    if args.stream and not args.model:
        print("--stream requires --model", file=sys.stderr)
        return 2
    if args.model:
        return _run_serve_artifact(args)
    if args.metrics_out:
        from repro.obs import runtime as obs_runtime

        obs_runtime.enable(metrics=True)
    dataset = load_dataset(args.corpus)
    rng = ensure_rng(args.seed)
    train, test = train_test_split(
        dataset, args.train_fraction, seed=rng.integers(0, 2**31)
    )
    engine = CaceEngine(strategy=args.strategy, seed=rng.integers(0, 2**31))
    engine.fit(train)
    report = evaluate_engine(engine, test)
    print(report.render())
    print(
        f"build {engine.build_seconds:.2f}s, decode {engine.decode_seconds:.2f}s "
        f"({args.strategy} on {len(test.sequences)} test sequences)"
    )
    if args.metrics_out:
        _write_metrics_snapshot(args.metrics_out, _registry_snapshot())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "experiment": _run_experiment,
        "generate": _run_generate,
        "mine": _run_mine,
        "fit": _run_fit,
        "recognize": _run_recognize,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
