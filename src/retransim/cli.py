"""Command-line front end.

Subcommands: train-lm, run, sweep, metrics (recompute from traces),
mask-hist, make-synthetic. Results are tidy CSV / JSONL for downstream
plotting; nothing is rendered in-process. Exit codes: 0 success,
1 internal error, 2 bad input or config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .core import CorpusError, SessionTrace, read_corpus, read_lines, tokenize
from .metrics import MetricsError, TradeoffPoint, aggregate
from .predict import (
    EmptyCorpus,
    LMFormatError,
    PredictorConfig,
    PredictorError,
    save_lm,
    train_lm,
)
from .sim import (
    ConfigError,
    RunConfig,
    SimulationError,
    TraceError,
    _simulate,
    check_lm,
    config_hash,
    load_models,
    load_run_config,
    read_traces,
    run_corpus,
    save_run_config,
    write_traces,
)
from .strategy import StrategyConfig
from .synthetic import toy_translator_spec, write_synthetic
from .translator import ParseError, TranslatorError

_INPUT_ERRORS = (
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    ConfigError,
    CorpusError,
    ParseError,
    TraceError,
    MetricsError,
    PredictorError,
    LMFormatError,
    TranslatorError,
    SimulationError,
    ValueError,
)


class SweepCellError(Exception):
    """A sweep cell failed; message carries the cell's label, __cause__ the error."""


@dataclass(frozen=True)
class SweepSpec:
    """A grid of strategies over one base run configuration.

    mask-k cells are the cross product of k_mask and bias_beta; dynamic
    cells come from the predictor axes' cross product and/or an explicit
    cell list, again crossed with bias_beta. Every cell must map to a
    unique strategy label.
    """

    base: RunConfig
    k_mask: tuple[int, ...] = ()
    bias_beta: tuple[float, ...] = (0.0,)
    predictor_strategy: tuple[str, ...] = ()
    predictor_k: tuple[int, ...] = ()
    predictor_n: tuple[int, ...] = ()
    dynamic_cells: tuple[PredictorConfig, ...] = ()
    include_none: bool = False
    include_oracle: bool = False

    def cells(self) -> list[StrategyConfig]:
        betas = self.bias_beta or (0.0,)
        out: list[StrategyConfig] = []
        if self.include_none:
            out.extend(StrategyConfig("none", bias_beta=b) for b in betas)
        if self.include_oracle:
            out.append(StrategyConfig("oracle"))
        for k in self.k_mask:
            out.extend(StrategyConfig("mask_k", k_mask=k, bias_beta=b) for b in betas)
        predictors = list(self.dynamic_cells)
        for strat in self.predictor_strategy:
            for k in self.predictor_k or (1,):
                for n in self.predictor_n or (1,):
                    predictors.append(PredictorConfig(strategy=strat, k=k, n=n))
        seen_preds = set()
        for pred in predictors:
            if pred.label in seen_preds:
                continue
            seen_preds.add(pred.label)
            out.extend(
                StrategyConfig("dynamic", predictor=pred, bias_beta=b) for b in betas
            )
        labels = Counter(cell.label for cell in out)
        dupes = [label for label, c in labels.items() if c > 1]
        if dupes:
            raise ConfigError(f"duplicate sweep cell labels: {dupes}")
        if not out:
            raise ConfigError("sweep defines no cells")
        return out

    @classmethod
    def from_dict(cls, data: dict, base_parallelism: int = 1) -> "SweepSpec":
        base = RunConfig.from_dict(data["base"], parallelism=base_parallelism)
        axes = data.get("axes", {})
        cells = tuple(
            PredictorConfig(**cell) for cell in data.get("dynamic_cells", [])
        )
        return cls(
            base=base,
            k_mask=tuple(axes.get("k_mask", [])),
            bias_beta=tuple(axes.get("bias_beta", [0.0])),
            predictor_strategy=tuple(axes.get("predictor_strategy", [])),
            predictor_k=tuple(axes.get("predictor_k", [])),
            predictor_n=tuple(axes.get("predictor_n", [])),
            dynamic_cells=cells,
            include_none=bool(data.get("include_none", False)),
            include_oracle=bool(data.get("include_oracle", False)),
        )


def load_sweep_spec(path: str | Path, parallelism: int = 1) -> SweepSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if "base" not in data:
        raise ConfigError(f"{path}: sweep spec needs a 'base' run config")
    return SweepSpec.from_dict(data, base_parallelism=parallelism)


def run_sweep(
    spec: SweepSpec,
    out_dir: str | Path | None = None,
    write_cell_traces: bool = False,
) -> list[tuple[StrategyConfig, TradeoffPoint, list[SessionTrace]]]:
    """Run every cell; results come back sorted by strategy label.

    Every cell's LM needs are checked before any work starts. The
    translator (and its memo cache) is shared across cells, which is
    sound because translators are pure functions of their inputs; with
    spec.base.parallelism > 1 each worker process shares its own copy
    across cells, over its shard of sentences.
    """
    base = spec.base
    pairs = read_corpus(base.source_path, base.reference_path, base.char_mode)
    if not pairs:
        raise CorpusError(f"{base.source_path}: empty corpus")
    models = load_models(base, pairs)
    cells = spec.cells()
    for cell in cells:
        try:
            check_lm(cell, models.lm)
        except PredictorError as exc:
            raise SweepCellError(f"cell {cell.label!r}: {exc}") from exc
    cfgs = [dataclasses.replace(base, strategy=cell) for cell in cells]
    traces, failure = _simulate(cfgs, pairs, models, base.parallelism)
    if failure is not None:
        index, exc = failure
        raise SweepCellError(f"cell {cells[index].label!r}: {exc}") from exc

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    results = []
    for cell, cfg, cell_traces in zip(cells, cfgs, traces):
        try:
            point = aggregate(cell.label, cell_traces, ne_mode=cfg.ne_mode)
        except MetricsError as exc:
            raise SweepCellError(f"cell {cell.label!r}: {exc}") from exc
        if out_path is not None and write_cell_traces:
            name = _safe_filename(cell.label) + ".jsonl"
            _atomic_write_traces(out_path / name, cell_traces, cfg)
        results.append((cell, point, cell_traces))
    results.sort(key=lambda item: item[0].label)
    return results


def _safe_filename(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._=,+-]", "_", label)


def _atomic_write_traces(path: Path, traces, cfg) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write_traces(tmp, traces, cfg)
    os.replace(tmp, path)


def pareto_frontier(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """Points not dominated on (AL, NE), both minimized."""
    frontier = []
    for p in points:
        dominated = any(
            q.al <= p.al and q.ne <= p.ne and (q.al < p.al or q.ne < p.ne)
            for q in points
        )
        if not dominated:
            frontier.append(p)
    frontier.sort(key=lambda p: (p.al, p.ne, p.strategy_label))
    return frontier


def mask_histogram(traces: list[SessionTrace]) -> dict[int, int]:
    """mask_length -> count over all non-final step records."""
    counts: Counter[int] = Counter()
    for trace in traces:
        for rec in trace.records:
            if not rec.is_final:
                counts[rec.mask_length] += 1
    return dict(sorted(counts.items()))


def write_points_csv(path: str | Path, points: list[TradeoffPoint]) -> None:
    lines = [TradeoffPoint.CSV_HEADER] + [p.csv_row() for p in points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_train_lm(args: argparse.Namespace) -> int:
    corpus = [tokenize(line, args.char_mode) for line in read_lines(args.source)]
    corpus = [sent for sent in corpus if sent]
    if not corpus:
        raise EmptyCorpus(f"{args.source}: no sentences")
    lm = train_lm(corpus, order=args.order, smoothing_alpha=args.alpha)
    save_lm(lm, args.out)
    n_tokens = sum(len(sent) for sent in corpus)
    print(f"trained order-{lm.order} LM on {len(corpus)} sentences, {n_tokens} tokens")
    print(f"vocabulary size: {len(lm.vocabulary)} (incl. reserved symbols)")
    print(f"wrote {args.out}")
    return 0


def _build_predictor(args: argparse.Namespace, current: PredictorConfig | None) -> PredictorConfig | None:
    if args.predictor is None and current is None:
        return None
    base = current or PredictorConfig(strategy=args.predictor or "lm_greedy")
    updates: dict = {}
    if args.predictor is not None:
        updates["strategy"] = args.predictor
    if args.pred_k is not None:
        updates["k"] = args.pred_k
    if args.pred_n is not None:
        updates["n"] = args.pred_n
    return dataclasses.replace(base, **updates) if updates else base


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        cfg = load_run_config(args.config, parallelism=args.parallelism)
    else:
        if not (args.source and args.reference):
            raise ConfigError("need --config, or --source and --reference")
        if args.lexicon:
            translator = {"kind": "toy", "lexicon_path": args.lexicon}
            for key, value in (
                ("beam_size", args.beam_size),
                ("distortion", args.distortion),
                ("instability", args.instability),
                ("max_len_ratio", args.max_len_ratio),
                ("seed", args.model_seed),
            ):
                if value is not None:
                    translator[key] = value
        elif args.script:
            translator = {
                "kind": "scripted",
                "script_path": args.script,
                "identity_fallback": args.identity_fallback,
            }
        else:
            raise ConfigError("need --lexicon (toy translator) or --script (scripted)")
        cfg = RunConfig(
            source_path=args.source,
            reference_path=args.reference,
            translator=translator,
            strategy=StrategyConfig("none"),
            parallelism=args.parallelism,
        )

    updates: dict = {}
    if args.source and args.config:
        updates["source_path"] = args.source
    if args.reference and args.config:
        updates["reference_path"] = args.reference
    if args.char_mode:
        updates["char_mode"] = True
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.lm is not None:
        updates["lm_path"] = args.lm
    if args.ne_mode is not None:
        updates["ne_mode"] = args.ne_mode

    strat = cfg.strategy
    kind = args.strategy or strat.kind
    predictor = _build_predictor(args, strat.predictor)
    strategy = StrategyConfig(
        kind=kind,
        k_mask=args.k_mask if args.k_mask is not None else strat.k_mask,
        predictor=predictor if kind == "dynamic" else None,
        bias_beta=args.beta if args.beta is not None else strat.bias_beta,
    )
    updates["strategy"] = strategy
    return dataclasses.replace(cfg, **updates)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_run_config(args)
    traces, point = run_corpus(cfg)
    if args.traces_out:
        write_traces(args.traces_out, traces, cfg)
        print(f"wrote {len(traces)} traces to {args.traces_out}", file=sys.stderr)
    if args.metrics_out:
        write_points_csv(args.metrics_out, [point])
    if args.echo_config:
        print(json.dumps(cfg.to_dict(), sort_keys=True), file=sys.stderr)
    print(f"config_hash: {config_hash(cfg)}", file=sys.stderr)
    print(TradeoffPoint.CSV_HEADER)
    print(point.csv_row())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep_spec(args.spec, parallelism=args.parallelism)
    results = run_sweep(spec, out_dir=args.out_dir, write_cell_traces=args.traces)
    points = [point for _, point, _ in results]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    write_points_csv(csv_path, points)
    print(f"wrote {len(points)} cells to {csv_path}", file=sys.stderr)
    if args.pareto:
        pareto_path = out_dir / "sweep_pareto.csv"
        write_points_csv(pareto_path, pareto_frontier(points))
        print(f"wrote Pareto frontier to {pareto_path}", file=sys.stderr)
    for line in (TradeoffPoint.CSV_HEADER, *(p.csv_row() for p in points)):
        print(line)
    return 0


def _label_from_header(header: dict | None, fallback: str) -> tuple[str, str]:
    if header and "config" in header:
        try:
            cfg = RunConfig.from_dict(header["config"])
            return cfg.strategy.label, cfg.ne_mode
        except ConfigError:
            pass
    return fallback, "mean"


def _cmd_metrics(args: argparse.Namespace) -> int:
    header, traces = read_traces(args.traces)
    if not traces:
        raise TraceError(f"{args.traces}: no traces")
    label, ne_mode = _label_from_header(header, args.label or "unknown")
    if args.label:
        label = args.label
    point = aggregate(label, traces, ne_mode=ne_mode)
    if args.out:
        write_points_csv(args.out, [point])
    print(TradeoffPoint.CSV_HEADER)
    print(point.csv_row())
    return 0


def _cmd_mask_hist(args: argparse.Namespace) -> int:
    header, traces = read_traces(args.traces)
    if not traces:
        raise TraceError(f"{args.traces}: no traces")
    hist = mask_histogram(traces)
    if args.csv:
        print("mask_length,count")
        for mask, count in hist.items():
            print(f"{mask},{count}")
    else:
        total = sum(hist.values())
        print(f"{'mask':>6} {'count':>8} {'share':>7}")
        for mask, count in hist.items():
            print(f"{mask:>6} {count:>8} {count / total:>7.1%}")
    return 0


def _cmd_make_synthetic(args: argparse.Namespace) -> int:
    paths = write_synthetic(
        args.out_dir,
        sentences=args.sentences,
        vocab=args.vocab,
        min_len=args.min_len,
        max_len=args.max_len,
        seed=args.seed,
    )
    run_cfg = RunConfig(
        source_path=paths["source"],
        reference_path=paths["reference"],
        translator=toy_translator_spec(paths["lexicon"], instability=args.instability),
        strategy=StrategyConfig("mask_k", k_mask=2),
    )
    cfg_path = Path(args.out_dir) / "run.json"
    save_run_config(run_cfg, cfg_path)
    for name, path in paths.items():
        print(f"{name}: {path}")
    print(f"run config template: {cfg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retransim",
        description="Retranslation simulator: masking strategies and latency/flicker metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-lm", help="train and persist an n-gram language model")
    p.add_argument("--source", required=True, help="training corpus, one sentence per line")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.1, help="add-alpha smoothing")
    p.add_argument("--char-mode", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_lm)

    p = sub.add_parser("run", help="run one strategy over a corpus")
    p.add_argument("--config", help="run config JSON (see README for the key set)")
    p.add_argument("--source")
    p.add_argument("--reference")
    p.add_argument("--lexicon", help="toy translator lexicon file")
    p.add_argument("--script", help="scripted translator file")
    p.add_argument("--identity-fallback", action="store_true")
    p.add_argument("--beam-size", type=int)
    p.add_argument("--distortion", type=float)
    p.add_argument("--instability", type=float)
    p.add_argument("--max-len-ratio", type=float)
    p.add_argument("--model-seed", type=int)
    p.add_argument("--strategy", choices=["none", "mask_k", "dynamic", "oracle"])
    p.add_argument("--k-mask", type=int)
    p.add_argument("--predictor", choices=["lm_sample", "lm_greedy", "unknown", "random"])
    p.add_argument("--pred-k", type=int)
    p.add_argument("--pred-n", type=int)
    p.add_argument("--beta", type=float, help="bias interpolation weight")
    p.add_argument("--lm", help="language model file from train-lm")
    p.add_argument("--seed", type=int)
    p.add_argument("--char-mode", action="store_true")
    p.add_argument("--ne-mode", choices=["mean", "corpus"])
    p.add_argument(
        "--parallelism", type=int, default=1,
        help="worker processes, sharded by sentence (default 1: in-process)",
    )
    p.add_argument("--traces-out")
    p.add_argument("--metrics-out")
    p.add_argument("--echo-config", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a grid of strategies and emit CSV")
    p.add_argument("--spec", required=True, help="sweep spec JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pareto", action="store_true", help="also emit the (AL, NE) frontier")
    p.add_argument("--traces", action="store_true", help="write per-cell trace files")
    p.add_argument(
        "--parallelism", type=int, default=1,
        help="worker processes, sharded by sentence; each runs every cell over "
        "its sentences with its own translator cache (default 1: in-process)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("metrics", help="recompute metrics from a trace file")
    p.add_argument("--traces", required=True)
    p.add_argument("--label")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("mask-hist", help="histogram of mask lengths over non-final steps")
    p.add_argument("--traces", required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_mask_hist)

    p = sub.add_parser("make-synthetic", help="generate the pinned synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sentences", type=int, default=200)
    p.add_argument("--vocab", type=int, default=50)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--instability", type=float, default=0.5)
    p.set_defaults(func=_cmd_make_synthetic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SweepCellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.__cause__, _INPUT_ERRORS) else 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
