"""Command-line front end.

Subcommands: train-lm, run, sweep, metrics (recompute from traces),
mask-hist, make-synthetic. Results are tidy CSV / JSONL for downstream
plotting; nothing is rendered in-process. Exit codes: 0 success,
1 internal error or a closed standard output, 2 bad input or config;
a located failure (sim.SimulationError) exits by the error it carries.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

from .core import _join, read_lines, tokenize, write_lines
from .metrics import NE_MODES, aggregate, csv_lines, mask_histogram, pareto_frontier
from .predict import (
    STRATEGIES,
    EmptyCorpus,
    PredictorError,
    save_lm,
    train_lm,
)
from .sim import (
    ConfigError,
    RunConfig,
    SimulationError,
    config_hash,
    load_run_config,
    load_sweep_spec,
    read_valid_traces,
    run_corpus,
    run_sweep,
    save_run_config,
    write_traces,
)
from .sim import SweepSpec, load_models  # noqa: F401  re-exported: callers read cli.<name>
from .strategy import KINDS
from .synthetic import synthetic_paths, toy_translator_spec, write_synthetic
from .translator import TranslatorError

# every other input error (config, corpus, lexicon, trace, metrics, LM file) is a ValueError
_INPUT_ERRORS = (
    FileExistsError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
    PredictorError,
    TranslatorError,
    ValueError,
)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_train_lm(args: argparse.Namespace) -> int:
    _refuse_one_file_twice([("--source", args.source)], [("--out", args.out)])
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


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """The run config file's keys, or none, with each given flag laid over its key."""
    if not (args.config or (args.source and args.reference and (args.lexicon or args.script))):
        raise ConfigError("need --config, or --source, --reference and --lexicon or --script")
    data = load_run_config(args.config).to_dict() if args.config else {}
    if args.lexicon or args.script:  # sets the kind and its path; another kind's keys go
        kind, key = ("toy", "lexicon_path") if args.lexicon else ("scripted", "script_path")
        if data.setdefault("translator", {}).get("kind") != kind:
            data["translator"] = {"kind": kind}
        data["translator"][key] = args.lexicon or args.script
    # a key the translator's kind lacks is the config reader's "unknown key" error
    _overlay(data["translator"], beam_size=args.beam_size, distortion=args.distortion,
             instability=args.instability, max_len_ratio=args.max_len_ratio,
             seed=args.model_seed, identity_fallback=args.identity_fallback)
    _overlay(data, source_path=args.source, reference_path=args.reference,
             char_mode=args.char_mode, lm_path=args.lm, ne_mode=args.ne_mode)
    strategy = data.setdefault("strategy", {"kind": "none"})
    if args.strategy and args.strategy != strategy["kind"]:  # another kind's keys go
        strategy.update(kind=args.strategy, k_mask=0, predictor=None)
    # a key the strategy's kind does not take is StrategyConfig's error
    predictor = strategy.get("predictor") or {}
    _overlay(predictor, strategy=args.predictor, k=args.pred_k, n=args.pred_n)
    _overlay(strategy, k_mask=args.k_mask, bias_beta=args.beta, predictor=predictor or None)
    return RunConfig.from_dict(data, f"flags over {args.config}" if args.config else "flags")


def _overlay(data: dict, **flags) -> None:
    """Set each key whose flag was given."""
    data.update((key, value) for key, value in flags.items() if value is not None)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = dataclasses.replace(_resolve_run_config(args), parallelism=args.parallelism)
    if args.echo_config:  # before the run, so a failed run still shows its config
        print(json.dumps(cfg.to_dict(), sort_keys=True), file=sys.stderr)
    _refuse_one_file_twice(
        [("--config", args.config), *_config_inputs(cfg, given=args)],
        [("--traces-out", args.traces_out), ("--metrics-out", args.metrics_out)],
    )
    traces, point = run_corpus(cfg)
    if args.traces_out:
        write_traces(args.traces_out, traces, cfg)
        print(f"wrote {len(traces)} traces to {args.traces_out}", file=sys.stderr)
    lines = csv_lines([point])
    if args.metrics_out:
        write_lines(args.metrics_out, lines)
    print(f"config_hash: {config_hash(cfg)}", file=sys.stderr)
    print(*lines, sep="\n")
    return 0


def _config_inputs(cfg: RunConfig, key: str = "", given: argparse.Namespace | None = None):
    """(name, path) of each file cfg reads: the run flag that set it, when
    given holds that flag, or else its key in the config under key."""
    for name, flag, path in (
        ("source_path", "--source", cfg.source_path),
        ("reference_path", "--reference", cfg.reference_path),
        ("translator.lexicon_path", "--lexicon", cfg.translator.get("lexicon_path")),
        ("translator.script_path", "--script", cfg.translator.get("script_path")),
        ("lm_path", "--lm", cfg.lm_path),
    ):
        if path is not None:
            by_flag = given is not None and getattr(given, flag[2:]) is not None
            yield flag if by_flag else _join(".", key, name), path


def _refuse_one_file_twice(inputs, outputs, makes: Path | None = None) -> None:
    """Refuse, before any work, an output path that is a directory, that
    lies in no directory (makes, the one the command makes, counts as one),
    or that resolves to one of the command's inputs or to an earlier output,
    as a regular file or one not made yet, so that no write replaces a file
    the command reads or writes. inputs and outputs are (flag, path) pairs,
    path None where not given; a path that exists as no regular file
    (/dev/stdout on a pipe, /dev/null) may be given twice."""
    seen = [(flag, path) for flag, path in inputs if path]
    for flag, path in outputs:
        if not path:
            continue
        parent = Path(path).parent
        if Path(path).is_dir():
            raise IsADirectoryError(f"{str(path)!r} is a directory")
        if not (parent.is_dir() or parent == makes):
            raise NotADirectoryError(f"{str(path)!r}: {str(parent)!r} is not a directory")
        if os.path.isfile(path) or not os.path.exists(path):
            for other_flag, other in seen:
                if os.path.realpath(other) == os.path.realpath(path):
                    raise ValueError(
                        f"{flag} {str(path)!r} names the same file as {other_flag} {str(other)!r}"
                    )
        seen.append((flag, path))


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep_spec(args.spec)
    base = dataclasses.replace(spec.base, parallelism=args.parallelism)
    spec = dataclasses.replace(spec, base=base)
    out_dir = Path(args.out_dir)
    csv_path, pareto_path = out_dir / "sweep.csv", out_dir / "sweep_pareto.csv"
    cell_paths = {
        cell.label: out_dir / (re.sub(r"[^A-Za-z0-9._=,+-]", "_", cell.label) + ".jsonl")
        for cell in spec.cells()
    }
    outputs = [csv_path, pareto_path if args.pareto else None,
               *(cell_paths.values() if args.traces else ())]
    _refuse_one_file_twice([("--spec", args.spec), *_config_inputs(base, "base")],
                           [("--out-dir", path) for path in outputs], makes=out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_sweep(spec)
    if args.traces:  # every cell is scored by now
        for cell, _, traces in results:
            cfg = dataclasses.replace(spec.base, strategy=cell)
            write_traces(cell_paths[cell.label], traces, cfg)
    points = [point for _, point, _ in results]
    lines = csv_lines(points)
    write_lines(csv_path, lines)
    print(f"wrote {len(points)} cells to {csv_path}", file=sys.stderr)
    if args.pareto:
        write_lines(pareto_path, csv_lines(pareto_frontier(points)))
        print(f"wrote Pareto frontier to {pareto_path}", file=sys.stderr)
    print(*lines, sep="\n")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    _refuse_one_file_twice([("--traces", args.traces)], [("--out", args.out)])
    cfg, traces = read_valid_traces(args.traces)
    point = aggregate(cfg.strategy.label, traces, ne_mode=cfg.ne_mode)
    lines = csv_lines([point])
    if args.out:
        write_lines(args.out, lines)
    print(*lines, sep="\n")
    return 0


def _cmd_mask_hist(args: argparse.Namespace) -> int:
    _, traces = read_valid_traces(args.traces)
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
    paths = synthetic_paths(args.out_dir)
    # the template goes through the checked reader before any file is written
    run_cfg = RunConfig.from_dict({
        "source_path": paths["source"],
        "reference_path": paths["reference"],
        "translator": toy_translator_spec(paths["lexicon"], instability=args.instability),
        "strategy": {"kind": "mask_k", "k_mask": 2},
    }, "flags")
    write_synthetic(
        args.out_dir,
        sentences=args.sentences,
        vocab=args.vocab,
        min_len=args.min_len,
        max_len=args.max_len,
        seed=args.seed,
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
    paths = p.add_mutually_exclusive_group()
    paths.add_argument("--lexicon", help="toy translator lexicon file")
    paths.add_argument("--script", help="scripted translator file")
    p.add_argument("--identity-fallback", action=argparse.BooleanOptionalAction)
    p.add_argument("--beam-size", type=int)
    p.add_argument("--distortion", type=float)
    p.add_argument("--instability", type=float)
    p.add_argument("--max-len-ratio", type=float)
    p.add_argument("--model-seed", type=int)
    p.add_argument("--strategy", choices=KINDS)
    p.add_argument("--k-mask", type=int)
    p.add_argument("--predictor", choices=STRATEGIES)
    p.add_argument("--pred-k", type=int)
    p.add_argument("--pred-n", type=int, help="extensions per step: lm_sample and random only")
    p.add_argument("--beta", type=float, help="bias interpolation weight")
    p.add_argument("--lm", help="language model file from train-lm")
    p.add_argument("--char-mode", action=argparse.BooleanOptionalAction)
    p.add_argument("--ne-mode", choices=NE_MODES)
    p.add_argument(
        "--parallelism", type=int, default=1,
        help="processes, this one included, sharded by sentence (default 1: in-process)",
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
        help="processes, this one included, sharded by sentence; each runs every "
        "cell over its sentences (default 1: in-process)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("metrics", help="recompute metrics from a trace file")
    p.add_argument("--traces", required=True)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # the reader left; what stays buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SimulationError as exc:  # exits by the error it carries
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.error, _INPUT_ERRORS) else 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
