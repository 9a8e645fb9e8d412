"""Command-line interface tying the library into runnable experiments.

Every subcommand is deterministic under ``--seed`` (bit-identical output
files across reruns). Diagnostics go to standard error; data goes to files
or standard output. Exit code 0 means no error. The ``MIDAS_SEED``
environment variable overrides the built-in default of ``--seed``; an
explicit flag still wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import (
    LabeledDataset,
    hard_relabeled,
    load_manifest,
    max_vote_histogram,
    partition_by_ambiguity,
    save_manifest,
    seeded_rng,
    stratified_split,
)
from .errors import InvalidInputError, MidasError
from .labels import filter_unresolved
from .metrics import coexistence, coexistence_to_csv, report
from .mixer import midas_batch
from .model import (
    LABEL_MODES,
    Classifier,
    TrainConfig,
    evaluate,
    featurize_frames,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .synth import SynthConfig, generate
from .vicinal import LABEL_MODES as MIX_LABEL_MODES, empirical_risk, vicinal_risk

DEFAULT_GRID = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"

_CLI_LABEL_MODES = tuple(m.replace("_", "-") for m in LABEL_MODES)


def _default_seed() -> int:
    env = os.environ.get("MIDAS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InvalidInputError(f"MIDAS_SEED must be an integer, got {env!r}") from None


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")


def _train_config(args, label_mode: str | None = None) -> TrainConfig:
    mode = (label_mode or args.labels).replace("-", "_")
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        alpha=args.alpha,
        label_mode=mode,
        seed=args.seed,
        normalize=args.normalize == "on",
    )


def _quantized(model: Classifier) -> Classifier:
    """Round parameters through float32, matching checkpoint precision."""
    return Classifier(
        weights=[w.astype("<f4").astype(np.float64) for w in model.weights],
        biases=[b.astype("<f4").astype(np.float64) for b in model.biases],
        activation=model.activation,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = SynthConfig(
        class_count=args.classes,
        samples_per_class=args.per_class,
        frames=args.frames,
        height=args.height,
        width=args.width,
        channels=args.channels,
        sigma_between=args.sigma_between,
        sigma_within=args.sigma_within,
        rho=args.rho,
        annotators=args.annotators,
        tau=args.tau,
        seed=args.seed,
    )
    dataset = generate(config)
    save_manifest(dataset, args.out)
    print(f"wrote {len(dataset)} clips to {args.out}", file=sys.stderr)
    return 0


def cmd_aggregate(args) -> int:
    dataset = load_manifest(args.manifest)
    cleaned = filter_unresolved(dataset)
    save_manifest(cleaned, args.out)
    print(f"removed {len(dataset) - len(cleaned)} tied record(s)", file=sys.stderr)
    return 0


def cmd_split(args) -> int:
    dataset = load_manifest(args.manifest)
    pair = stratified_split(dataset, ratio=args.ratio, seed=args.seed)
    out = Path(args.out)
    train_path = out.parent / f"{out.name}_train.json"
    val_path = out.parent / f"{out.name}_val.json"
    save_manifest(pair.train, train_path)
    save_manifest(pair.validation, val_path)
    print(
        f"split {len(dataset)} clips into {len(pair.train)} train / "
        f"{len(pair.validation)} val",
        file=sys.stderr,
    )
    return 0


def cmd_train(args) -> int:
    train_set = load_manifest(args.manifest)
    val_set = load_manifest(args.val)
    config = _train_config(args)
    model, history = train(train_set, config, validation=val_set)
    save_checkpoint(model, args.out, config=config)
    history_path = args.history or f"{args.out}.history.json"
    _emit(
        {
            "config_hash": config.hash(),
            "best_epoch": history.best_epoch,
            "loss": [float(v) for v in history.loss],
            "val_uar": [float(v) for v in history.val_uar],
            "val_war": [float(v) for v in history.val_war],
        },
        history_path,
    )
    print(
        f"best epoch {history.best_epoch + 1}/{config.epochs}: "
        f"val UAR {history.val_uar[history.best_epoch]:.4f} "
        f"WAR {history.val_war[history.best_epoch]:.4f}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args) -> int:
    model, meta = load_checkpoint(args.checkpoint)
    dataset = load_manifest(args.manifest)
    bundle = report(model, dataset, target_hw=meta["target_hw"])
    _emit(bundle, args.out)
    return 0


def cmd_sweep_alpha(args) -> int:
    try:
        grid = sorted(float(v) for v in args.grid.split(",") if v.strip())
    except ValueError:
        raise InvalidInputError(f"cannot parse grid {args.grid!r}") from None
    if not grid:
        raise InvalidInputError("alpha grid is empty")
    train_set = load_manifest(args.manifest)
    val_set = load_manifest(args.val)
    rows = []
    for alpha in grid:
        config = replace(_train_config(args), alpha=alpha)
        model, _ = train(train_set, config, validation=val_set)
        v_uar, v_war = evaluate(_quantized(model), val_set, config.target_hw)
        rows.append({"alpha": alpha, "uar": v_uar, "war": v_war})
        print(f"alpha {alpha:g}: UAR {v_uar:.4f} WAR {v_war:.4f}", file=sys.stderr)
    _emit({"labels": args.labels, "seed": args.seed, "rows": rows}, args.out)
    return 0


def cmd_analyze(args) -> int:
    dataset = load_manifest(args.manifest)
    matrix = coexistence(dataset)
    hist = max_vote_histogram(dataset)
    doc = {
        "class_names": list(dataset.class_names),
        "coexistence": [[float(v) for v in row] for row in matrix.ratios],
        "missing_classes": [
            name for name, m in zip(dataset.class_names, matrix.missing) if m
        ],
        "max_vote_histogram": [int(v) for v in hist],
    }
    _emit(doc, args.out)
    if args.csv:
        prefix = Path(args.csv)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        coexistence_to_csv(matrix, dataset.class_names, f"{args.csv}_coexistence.csv")
    return 0


def cmd_ambiguity_ablation(args) -> int:
    pair = stratified_split(load_manifest(args.manifest), ratio=args.ratio, seed=args.seed)
    validation = pair.validation
    clear, mixed = partition_by_ambiguity(
        pair.train, threshold=args.threshold, balance=True, seed=args.seed
    )
    del pair  # the groups hold copies of their clips, so the train side can go
    rows = []
    for group_name, group in (("clear", clear), ("mixed", mixed)):
        for mode in ("soft", "midas"):
            config = _train_config(args, label_mode=mode)
            model, _ = train(group, config, validation=validation)
            v_uar, v_war = evaluate(_quantized(model), validation, config.target_hw)
            rows.append(
                {"group": group_name, "labels": mode, "uar": v_uar, "war": v_war}
            )
            print(
                f"{group_name}/{mode}: UAR {v_uar:.4f} WAR {v_war:.4f}",
                file=sys.stderr,
            )
    doc = {
        "threshold": args.threshold,
        "seed": args.seed,
        "group_sizes": {"clear": len(clear), "mixed": len(mixed)},
        "rows": rows,
    }
    _emit(doc, args.out)
    return 0


def cmd_mix(args) -> int:
    rng = seeded_rng(args.seed)
    dataset = load_manifest(args.manifest)
    source = hard_relabeled(dataset) if args.labels == "hard" else dataset
    count = args.n if args.n is not None else len(dataset)
    batch = midas_batch(
        source,
        batch_size=count,
        alpha=args.alpha,
        rng=rng,
        normalize=args.normalize == "on",
    )
    # Mixed labels are not vote averages; the manifest keeps the dominant
    # source's votes for format compatibility and the sidecar holds the
    # authoritative mixing record.
    dominant = np.where(batch.lams >= 0.5, batch.left, batch.right)
    mixed = LabeledDataset(
        batch.clips, dataset.votes[dominant], tuple(f"mix-{k:05d}" for k in range(count)),
        class_names=dataset.class_names,
        provenance=f"mix(seed={args.seed})",
    )
    sidecar = [
        {"lambda": lam, "source_i": dataset.ids[i], "source_j": dataset.ids[j],
         "label_mode": args.labels}
        for lam, i, j in zip(batch.lams.tolist(), batch.left.tolist(), batch.right.tolist())
    ]
    save_manifest(mixed, args.out)
    sidecar_path = Path(args.out).with_suffix(".sidecar.json")
    sidecar_path.write_text(
        json.dumps(sidecar, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {count} mixed clips to {args.out}", file=sys.stderr)
    return 0


def cmd_risk(args) -> int:
    rng = seeded_rng(args.seed)
    dataset = load_manifest(args.manifest)
    model, meta = load_checkpoint(args.checkpoint)

    def predictor(frames):
        return forward_batch(model, featurize_frames(frames, meta["target_hw"]))

    if args.empirical:
        estimate = empirical_risk(predictor, dataset)
    else:
        estimate = vicinal_risk(
            predictor, dataset, alpha=args.alpha, draws=args.draws,
            label_mode=args.labels, rng=rng,
        )
    _emit(
        {
            "value": estimate.value,
            "stderr": estimate.stderr,
            "draws": estimate.num_terms,
            "seed": args.seed,
        },
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_train_flags(
    p: argparse.ArgumentParser, seed: int, labels: str | None = "midas"
) -> None:
    if labels is not None:
        p.add_argument("--labels", choices=_CLI_LABEL_MODES, default=labels,
                       help="training target mode")
    p.add_argument("--alpha", type=float, default=0.8, help="Beta concentration")
    p.add_argument("--normalize", choices=("on", "off"), default="on",
                   help="softmax-renormalize mixed labels")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=seed)


def build_parser() -> argparse.ArgumentParser:
    seed = _default_seed()
    parser = argparse.ArgumentParser(
        prog="midas",
        description="Soft-label clip mixing: data tooling, training, and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out", required=True, help="manifest path to write")
    p.add_argument("--classes", type=int, default=7)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--height", type=int, default=16)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--sigma-between", type=float, default=1.0)
    p.add_argument("--sigma-within", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.3,
                   help="fraction of two-class mixture samples")
    p.add_argument("--annotators", type=int, default=10)
    p.add_argument("--tau", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("aggregate", help="drop tie-voted clips from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("split", help="stratified train/validation split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>_train.json and <out>_val.json")
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train the desk-scale classifier")
    p.add_argument("--manifest", required=True, help="training manifest")
    p.add_argument("--val", required=True, help="validation manifest")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", default=None,
                   help="history JSON path (default: <out>.history.json)")
    _add_train_flags(p, seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="bundle path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-alpha", help="train once per alpha grid point")
    p.add_argument("--manifest", required=True, help="training manifest")
    p.add_argument("--val", required=True, help="validation manifest")
    p.add_argument("--grid", default=DEFAULT_GRID, help="comma-separated alphas")
    p.add_argument("--out", default=None, help="table path (default: stdout)")
    _add_train_flags(p, seed)
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("analyze", help="coexistence matrix and max-vote histogram")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="JSON path (default: stdout)")
    p.add_argument("--csv", default=None, help="also write <csv>_coexistence.csv")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "ambiguity-ablation",
        help="train per clear/mixed group and compare on a common validation split",
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold", type=float, default=0.9,
                   help="max-soft-label cutoff defining the clear group")
    p.add_argument("--ratio", type=float, default=0.8,
                   help="train/validation ratio for the common split")
    p.add_argument("--out", default=None, help="table path (default: stdout)")
    _add_train_flags(p, seed, labels=None)  # trains both soft and midas cells
    p.set_defaults(func=cmd_ambiguity_ablation)

    p = sub.add_parser("mix", help="emit mixed clips as a manifest plus sidecar")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="mixed manifest path")
    p.add_argument("--n", type=int, default=None,
                   help="sample count (default: dataset size)")
    p.add_argument("--labels", choices=MIX_LABEL_MODES, default="soft")
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--normalize", choices=("on", "off"), default="on")
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("risk", help="empirical or mixed-pair risk of a checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--labels", choices=MIX_LABEL_MODES, default="soft")
    p.add_argument("--empirical", action="store_true",
                   help="average over the dataset instead of mixed draws")
    p.add_argument("--out", default=None, help="JSON path (default: stdout)")
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_risk)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (MidasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
