"""``repro run``: paper experiments and direct samples from one command.

Runs the paper experiments by id, printing each table followed by one
verdict (HOLDS, VIOLATED or INCONCLUSIVE) per paper claim it declares and
a closing scorecard; the exit status is 1 when any claim is VIOLATED.
Also:

* ``--store DIR`` — thread a content-addressed result store through the
  Monte-Carlo sweeps, so repeated runs become cache lookups;
* ``--algorithm NAME --side N --trials N`` — sample one algorithm
  directly (no experiment table), with NAME validated against the
  schedule-family registry so generated families like
  ``random_network(length=64,seed=3)`` work exactly as in the library.

Examples::

    repro run --list
    repro run E-T2 E-SCALE
    repro run --all --scale full --csv results/
    repro run E-CAMP --workers 4 --store /tmp/store
    repro run --algorithm odd_even --side 16 --trials 64 --store /tmp/store
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import DimensionError, ReproError
from repro.experiments.claims import ClaimResult, Verdict, evaluate_claims
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.report import ExperimentRun, render_summary
from repro.obs import (
    CompositeObserver,
    JsonlTraceSink,
    MetricsObserver,
    MetricsRegistry,
    PhaseTimer,
    ProgressPrinter,
    RunManifest,
    StopWatch,
    table_digest,
    use_observer,
    write_manifest,
)

__all__ = ["main"]


def _ensure_writable_dir(path: Path, flag: str) -> str | None:
    """Create ``path`` (and parents); return an error message if unusable."""
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        return f"error: {flag} directory {path} is not writable: {exc}"
    return None


def _algorithm_help() -> str:
    """Dynamic ``--algorithm`` help: the registered schedule families."""
    from repro.schedules import available_families

    return (
        "sample one algorithm directly instead of running experiment "
        "tables; any registered schedule family works, including "
        "parameterized specs like 'random_network(length=64,seed=3)' "
        f"(families: {', '.join(available_families())})"
    )


def _run_direct_sample(args: argparse.Namespace) -> int:
    """The ``--algorithm`` mode: one sample, printed as its stats + meta."""
    from repro.experiments.sampling import sample

    if args.side is None or args.trials is None:
        print(
            "error: --algorithm requires --side and --trials", file=sys.stderr
        )
        return 2
    from repro.campaign.execution import ExecutionOptions

    try:
        execution = ExecutionOptions(
            backend=args.backend,
            workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            store=args.store,
        )
        result = sample(
            args.algorithm,
            side=args.side,
            trials=args.trials,
            seed=args.seed,
            execution=execution,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = result.stats
    print(
        f"{args.algorithm}  side={args.side}  trials={stats.count}  "
        f"mean={stats.mean:.4f}  std={stats.std:.4f}  "
        f"digest={result.values_digest}"
    )
    store_meta = result.meta.get("store")
    if store_meta is not None:
        outcome = "hit" if store_meta["hit"] else (
            "miss (stored)" if store_meta.get("stored") else "miss"
        )
        print(f"  store: {outcome}  [{store_meta['store']}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run the experiments reproducing Savari (SPAA 1993), "
        "or sample one algorithm directly with --algorithm.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (see --list)")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--scale", choices=("quick", "full"), default="quick")
    parser.add_argument("--seed", type=int, default=20260706)
    parser.add_argument(
        "--backend", default=None,
        help="execution backend for the Monte-Carlo samplers "
             "(see repro.backends.available_backends(); default: vectorized)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the Monte-Carlo sweeps; N != 1 switches "
             "the samplers to sharded campaign mode (default: 1, in-process)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="checkpoint campaign shards under DIR so interrupted runs can "
             "be resumed with --resume (implies campaign mode)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore shards already recorded under --checkpoint-dir "
             "instead of recomputing them",
    )
    parser.add_argument(
        "--store", metavar="DIR",
        help="content-addressed result store: completed campaigns are "
             "cached by spec fingerprint and repeated sweeps become "
             "lookups (implies campaign mode; see docs/SERVICE.md)",
    )
    parser.add_argument("--algorithm", metavar="NAME", help=_algorithm_help())
    parser.add_argument(
        "--side", type=int, default=None,
        help="grid side for --algorithm mode",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="trial count for --algorithm mode",
    )
    parser.add_argument("--csv", metavar="DIR", help="also write each table as CSV")
    parser.add_argument(
        "--summary", metavar="FILE",
        help="run the selected experiments (default: all) and write a "
             "markdown summary report with the claim scorecard",
    )
    parser.add_argument(
        "--trace", metavar="DIR",
        help="write per-experiment JSONL event traces and run manifests "
             "under DIR",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="write aggregated run metrics to FILE (JSON, or Prometheus "
             "text when FILE ends in .prom)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-run progress lines to stderr while experiments run",
    )
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in experiment_ids():
            print(f"{exp_id:12s} {EXPERIMENTS[exp_id].paper_artifact}")
        return 0

    if args.algorithm:
        if args.ids or args.all or args.summary:
            print(
                "error: --algorithm (direct sample) cannot be combined with "
                "experiment ids, --all, or --summary",
                file=sys.stderr,
            )
            return 2
        return _run_direct_sample(args)

    csv_dir: Path | None = None
    if args.csv:
        csv_dir = Path(args.csv)
        error = _ensure_writable_dir(csv_dir, "--csv")
        if error:
            print(error, file=sys.stderr)
            return 2

    trace_dir: Path | None = None
    if args.trace:
        trace_dir = Path(args.trace)
        error = _ensure_writable_dir(trace_dir, "--trace")
        if error:
            print(error, file=sys.stderr)
            return 2

    checkpoint_dir: Path | None = None
    if args.checkpoint_dir:
        checkpoint_dir = Path(args.checkpoint_dir)
        error = _ensure_writable_dir(checkpoint_dir, "--checkpoint-dir")
        if error:
            print(error, file=sys.stderr)
            return 2

    if args.store:
        error = _ensure_writable_dir(Path(args.store), "--store")
        if error:
            print(error, file=sys.stderr)
            return 2

    if args.metrics_out:
        # Fail fast like --csv/--trace: an unwritable destination should
        # surface before hours of experiments, not after them.
        error = _ensure_writable_dir(Path(args.metrics_out).parent, "--metrics-out")
        if error:
            print(error, file=sys.stderr)
            return 2

    registry = MetricsRegistry()
    persistent_observers = []
    if args.metrics_out:
        persistent_observers.append(MetricsObserver(registry))
    if args.progress:
        persistent_observers.append(ProgressPrinter())
    timer = PhaseTimer(registry if args.metrics_out else None)

    def finish() -> None:
        if args.metrics_out:
            out = Path(args.metrics_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            if out.suffix == ".prom":
                out.write_text(registry.to_prometheus_text())
            else:
                registry.to_json(out)
            print(f"wrote {out}")

    def build_config() -> ExperimentConfig:
        from dataclasses import replace

        cfg = ExperimentConfig(
            scale=args.scale,
            seed=args.seed,
            backend=args.backend or "vectorized",
            workers=args.workers,
            checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
            resume=args.resume,
        )
        if args.store:
            cfg.execution = replace(cfg.execution, store=args.store)
        return cfg

    ids = experiment_ids() if args.all or (args.summary and not args.ids) else args.ids
    if not ids:
        parser.print_usage()
        print("give experiment ids, --all, --list, or --algorithm", file=sys.stderr)
        return 2
    unknown = [exp_id for exp_id in ids if exp_id not in EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiment id(s) {', '.join(unknown)}; "
            f"known: {', '.join(experiment_ids())}",
            file=sys.stderr,
        )
        return 2

    try:
        cfg = build_config()
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runs: list[ExperimentRun] = []
    for exp_id in ids:
        sink: JsonlTraceSink | None = None
        observers = list(persistent_observers)
        if trace_dir is not None:
            sink = JsonlTraceSink(trace_dir / exp_id / "events.jsonl")
            observers.append(sink)
        if args.progress:
            print(f"  [{exp_id} starting at scale={cfg.scale}]", file=sys.stderr)
        try:
            with StopWatch() as watch:
                if observers:
                    with use_observer(CompositeObserver(observers)):
                        table = run_experiment(exp_id, cfg)
                else:
                    table = run_experiment(exp_id, cfg)
        except ReproError as exc:
            print(f"error: {exp_id}: {exc}", file=sys.stderr)
            return 2
        finally:
            if sink is not None:
                sink.close()
        timer.record(exp_id, watch.elapsed)
        claims = evaluate_claims(EXPERIMENTS[exp_id].claims, table)
        runs.append(ExperimentRun(exp_id, table, watch.elapsed, claims))
        print(table.to_text())
        print(f"  [{exp_id} finished in {watch.elapsed:.1f}s at scale={cfg.scale}]")
        for line in _claim_lines(exp_id, claims):
            print(f"  {line}")
        print()
        if sink is not None:
            manifest = RunManifest(
                kind="experiment",
                exp_id=exp_id,
                seed=cfg.seed,
                scale=cfg.scale,
                elapsed_seconds=watch.elapsed,
                result_digest=table_digest(table),
                argv=list(argv) if argv is not None else sys.argv[1:],
                extra={
                    "events": str(sink.path),
                    "claims": [result.to_dict() for result in claims],
                },
            )
            manifest_path = write_manifest(
                trace_dir / exp_id / "manifest.json", manifest
            )
            print(f"  wrote {sink.path} and {manifest_path}")
        if csv_dir is not None:
            path = csv_dir / f"{exp_id}.csv"
            try:
                table.to_csv(path)
            except OSError as exc:
                print(f"error: cannot write {path}: {exc}", file=sys.stderr)
                return 2
            print(f"  wrote {path}")
    if args.summary:
        path = Path(args.summary)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_summary(runs, cfg, timer))
        print(f"wrote {path}")
    finish()
    return _print_scorecard(runs)


def _claim_lines(exp_id: str, claims: list[ClaimResult]) -> list[str]:
    """One scorecard line per claim verdict (or a line saying there is none)."""
    if not claims:
        return [f"{'-':<12} {exp_id} declares no claim"]
    return [
        f"{result.verdict.value:<12} {exp_id} {result.label}: "
        f"margin {result.margin:+.3f}" + (f" ({result.detail})" if result.detail else "")
        for result in claims
    ]


def _print_scorecard(runs: list[ExperimentRun]) -> int:
    """Print the claim tally; exit status 1 if any claim is VIOLATED."""
    results = [(run.exp_id, result) for run in runs for result in run.claims]
    counts = {verdict: 0 for verdict in Verdict}
    for _, result in results:
        counts[result.verdict] += 1
    tally = ", ".join(f"{n} {verdict.value}" for verdict, n in counts.items())
    print(f"claims: {len(results)} checked: {tally}")
    for exp_id, result in results:
        if result.verdict is Verdict.VIOLATED:
            print(f"  VIOLATED: {exp_id} {result.label} ({result.statement})")
    return 1 if counts[Verdict.VIOLATED] else 0


if __name__ == "__main__":
    raise SystemExit(main())
