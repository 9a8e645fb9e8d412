"""The benchmark's three workloads.

Each workload builds its corpus in ``setup`` (timed as ``setup_s``), then runs
identical rounds of operations (each round timed as a whole), and checks the
program's outputs in ``check`` after the timed part. Inputs depend only on
the workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

import checks
import reference as ref
# Calls go through the module attributes (``model.train``, not a local
# ``train``) so that the tracer's wrappers see them.
from midas import cli, dataset, mixer, model, synth

# The pinned corpus and optimiser of the acceptance suite (_MAIN_SYNTH and
# _MAIN_CONFIG in tests/test_acceptance.py): 7 classes x 200 clips of
# 8 frames at 16x16x1, 80/20 split, hidden (64, 32), 8x8 features.
MAIN_SYNTH = dict(class_count=7, samples_per_class=200, rho=0.5, tau=0.8, sigma_within=0.3)
MAIN_CONFIG = dict(
    epochs=150, learning_rate=0.5, batch_size=64, alpha=0.8,
    normalize=False, hidden=(64, 32), target_hw=(8, 8),
)
TRAINING_SEEDS = 5  # acceptance training seeds 0..4 at the default workload seed
UAR_FLOOR = 2.0 / 7.0  # twice chance; a few training seeds stall near 0.4 in midas_hard at 15 epochs


class TrainWorkload:
    """Library ``train`` in the given label modes, one training seed per round."""

    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path, modes: tuple[str, ...], epochs: int):
        self.seeds = [seed + k for k in range(TRAINING_SEEDS)]
        self.modes = modes
        self.config = dict(MAIN_CONFIG, epochs=epochs)
        self.pairs = []
        self.results = []

    def describe(self) -> dict:
        return {
            "corpus": "acceptance corpus: 7 classes x 200 clips, 8 frames of 16x16x1, tie-filtered, 80/20 split",
            "training_seeds": self.seeds,
            "generate_seeds": [100 + s for s in self.seeds],
            "modes": list(self.modes),
            "epochs": self.config["epochs"],
        }

    def setup(self) -> float:
        self.pairs = []  # let the previous set-up's corpora go before building new ones
        start = time.perf_counter()
        self.pairs = [
            dataset.stratified_split(
                synth.generate(synth.SynthConfig(seed=100 + s, **MAIN_SYNTH)), ratio=0.8, seed=s
            )
            for s in self.seeds
        ]
        return time.perf_counter() - start

    def prepare(self, k: int) -> None:
        pass

    def round(self, k: int) -> dict:
        index = k % len(self.seeds)
        pair = self.pairs[index]
        train_s = 0.0
        for mode in self.modes:
            config = model.TrainConfig(label_mode=mode, seed=self.seeds[index], **self.config)
            start = time.perf_counter()
            classifier, history = model.train(pair.train, config, validation=pair.validation)
            train_s += time.perf_counter() - start
            self.results.append((index, mode, classifier, history))
        n = len(pair.train)
        return {
            "attempted": len(self.modes), "failed": 0,
            "train_samples": n * self.config["epochs"] * len(self.modes), "train_s": train_s,
        }

    def check(self) -> None:
        epochs, hw = self.config["epochs"], self.config["target_hw"]
        for index, mode, classifier, history in self.results:
            val = self.pairs[index].validation
            checks.check_history(history.loss, history.val_uar, history.val_war, history.best_epoch, epochs)
            checks.check_model_uar(
                classifier.weights, classifier.biases,
                np.stack([e.clip.frames for e in val.entries]),
                np.stack([e.votes.counts for e in val.entries]),
                hw, float(history.val_uar[history.best_epoch]), UAR_FLOOR,
            )
        self._check_mix_draw()

    def _check_mix_draw(self) -> None:
        """One draw of two full passes and a partial one, outside the timed part."""
        source = self.pairs[0].train
        n = len(source)
        rng = np.random.default_rng(self.seeds[0])
        batch = mixer.midas_batch(
            source, batch_size=2 * n + n // 3, alpha=MAIN_CONFIG["alpha"], rng=rng,
            normalize=MAIN_CONFIG["normalize"],
        )
        position = {e.clip.clip_id: k for k, e in enumerate(source.entries)}
        votes = np.stack([e.votes.counts for e in source.entries])
        checks.check_mix_draw(
            [s.lam for s in batch.samples],
            [position[s.source_i] for s in batch.samples],
            [position[s.source_j] for s in batch.samples],
            batch.clips, batch.labels,
            np.stack([e.clip.frames for e in source.entries]),
            ref.soft_labels(votes), MAIN_CONFIG["normalize"],
        )


def train_mix(seed: int, workdir: Path) -> TrainWorkload:
    return TrainWorkload(seed, workdir, ("midas", "midas_hard"), epochs=15)


def train_fixed(seed: int, workdir: Path) -> TrainWorkload:
    return TrainWorkload(seed, workdir, ("hard", "soft"), epochs=MAIN_CONFIG["epochs"])


# ---------------------------------------------------------------------------
# CLI walkthrough
# ---------------------------------------------------------------------------

CLI_SYNTH = ["--per-class", "60", "--frames", "8", "--height", "32", "--width", "32", "--channels", "3"]
CLI_CORPORA = 4  # corpus seeds seed .. seed+3; round k walks through corpus k mod 4
CLI_EPOCHS = 3
CLI_GRID = "0.2,0.4,0.8,1.6"
CLI_MIX_N = 256
CLI_DRAWS = 1000
CLI_RATIO = 0.8
CLI_THRESHOLD = 0.9
TRAINING_STEPS = ("train", "sweep-alpha", "ambiguity-ablation")


def run_cli(argv: list[str]) -> tuple[int, BaseException | None, str, str]:
    """(exit code, exception raised, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = -1
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raw traceback is a finding, not a crash of the benchmark
            raised = exc
    return code, raised, out.getvalue(), err.getvalue()


class CliWorkload:
    """The README's walkthrough through ``midas.cli.main`` in one process.

    Set-up is ``midas synth`` for each of the corpora. Round k runs README
    steps 2 to 10 on corpus k mod ``CLI_CORPORA`` in a fresh tree laid out
    as the README's (``data/``, ``runs/``), with ``risk`` in soft and hard
    modes and with ``--empirical``, then README step 4 with ``--out`` under
    ``fresh/``, a directory that does not exist, which fails until
    ``save_checkpoint`` creates parents.

    Every set-up and round writes new files, and the previous one's are
    deleted before the next starts, outside the timed part. Writing over
    them instead would time the file system's flush of the earlier copies:
    ext4 starts writeback when a truncated file is rewritten and closed, and
    truncating a file under writeback waits for it.
    """

    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.setups = 0
        # The current set-up's corpora and the current round's tree; set by setup() and prepare().
        self.corpora = self.data = self.runs = self.fresh = None
        self.seeds = [seed + j for j in range(CLI_CORPORA)]
        self.last_index = 0
        self.samples_per_round: dict[int, int] = {}
        self.problems: list[str] = []
        self.outputs: dict[str, tuple] = {}

    def describe(self) -> dict:
        return {
            "corpus": "midas synth " + " ".join(CLI_SYNTH) + f" --seed S, S in {self.seeds}",
            "epochs": CLI_EPOCHS, "grid": CLI_GRID, "mix_n": CLI_MIX_N, "risk_draws": CLI_DRAWS,
        }

    def setup(self) -> float:
        if self.corpora:
            shutil.rmtree(self.corpora)
        self.setups += 1
        self.corpora = self.workdir / f"setup{self.setups}"
        took = 0.0
        for index, seed in enumerate(self.seeds):
            argv = ["synth", "--out", str(self.corpus(index)), "--seed", str(seed)] + CLI_SYNTH
            start = time.perf_counter()
            code, raised, _, err = run_cli(argv)
            took += time.perf_counter() - start
            checks.require(code == 0 and raised is None, f"synth failed: {raised or err}")
        return took

    def corpus(self, index: int) -> Path:
        return self.corpora / f"corpus{index}.json"

    def prepare(self, k: int) -> None:
        if self.data:
            shutil.rmtree(self.data.parent)
        tree = self.workdir / f"round{k}"
        self.data, self.runs, self.fresh = tree / "data", tree / "runs", tree / "fresh"
        self.data.mkdir(parents=True)
        self.runs.mkdir()

    def steps(self, index: int) -> list[tuple[str, list[str]]]:
        data, runs, seed = self.data, self.runs, str(self.seeds[index])
        train_args = ["--manifest", str(data / "split_train.json"), "--val", str(data / "split_val.json"),
                      "--labels", "midas", "--alpha", "0.8", "--epochs", str(CLI_EPOCHS), "--seed", seed]
        risk = ["risk", "--manifest", str(data / "split_val.json"), "--checkpoint", str(runs / "mixer.ckpt")]
        return [
            ("aggregate", ["aggregate", "--manifest", str(self.corpus(index)), "--out", str(data / "clean.json")]),
            ("split", ["split", "--manifest", str(data / "clean.json"), "--out", str(data / "split"),
                       "--ratio", str(CLI_RATIO), "--seed", seed]),
            ("train", ["train", "--out", str(runs / "mixer.ckpt")] + train_args),
            ("eval", ["eval", "--checkpoint", str(runs / "mixer.ckpt"), "--manifest", str(data / "split_val.json"),
                      "--out", str(runs / "eval.json")]),
            ("sweep-alpha", ["sweep-alpha", "--manifest", str(data / "split_train.json"),
                             "--val", str(data / "split_val.json"), "--grid", CLI_GRID, "--labels", "midas",
                             "--epochs", str(CLI_EPOCHS), "--seed", seed, "--out", str(runs / "sweep.json")]),
            ("analyze", ["analyze", "--manifest", str(data / "clean.json"), "--csv", str(runs / "tables")]),
            ("ambiguity-ablation", ["ambiguity-ablation", "--manifest", str(data / "clean.json"),
                                    "--threshold", str(CLI_THRESHOLD), "--ratio", str(CLI_RATIO),
                                    "--epochs", str(CLI_EPOCHS), "--seed", seed, "--out", str(runs / "ablation.json")]),
            ("mix", ["mix", "--manifest", str(data / "clean.json"), "--out", str(runs / "mixed.json"),
                     "--n", str(CLI_MIX_N), "--seed", seed]),
            ("risk-soft", risk + ["--draws", str(CLI_DRAWS), "--seed", seed, "--out", str(runs / "risk_soft.json")]),
            ("risk-hard", risk + ["--draws", str(CLI_DRAWS), "--labels", "hard", "--seed", seed,
                                  "--out", str(runs / "risk_hard.json")]),
            ("risk-empirical", risk + ["--empirical", "--out", str(runs / "risk_empirical.json")]),
            ("train-fresh-tree", ["train", "--out", str(self.fresh / "runs" / "mixer.ckpt")] + train_args),
        ]

    def round(self, k: int) -> dict:
        failed = 0
        train_s = 0.0
        step_s = {}
        index = self.last_index = k % CLI_CORPORA
        steps = self.steps(index)
        for name, argv in steps:
            start = time.perf_counter()
            outcome = self.outputs[name] = run_cli(argv)
            took = step_s[name] = time.perf_counter() - start
            code, raised, _, err = outcome
            if name in TRAINING_STEPS:
                train_s += took
            if name == "train-fresh-tree":
                try:
                    failed += checks.check_known_failure(code, raised, err)
                except checks.CheckFailed as exc:
                    failed += 1
                    self.problems.append(f"round {k} {name}: {exc}")
            elif code != 0 or raised is not None:
                failed += 1
                self.problems.append(f"round {k} {name}: exit {code}, {raised or err.strip()}")
        return {"attempted": len(steps), "failed": failed,
                "train_samples": self._samples_per_round(index), "train_s": train_s, "step_s": step_s}

    def _samples_per_round(self, index: int) -> int:
        """Sample-epochs of the README's train, sweep-alpha and ablation steps on one corpus."""
        if index not in self.samples_per_round:
            n_train = len(json.loads((self.data / "split_train.json").read_text())["entries"])
            groups = json.loads((self.runs / "ablation.json").read_text())["group_sizes"]
            grid = len(CLI_GRID.split(","))
            self.samples_per_round[index] = CLI_EPOCHS * (n_train * (1 + grid) + 2 * (groups["clear"] + groups["mixed"]))
        return self.samples_per_round[index]

    def check(self) -> None:
        """Checks the tree as the last round left it."""
        checks.require(not self.problems, "; ".join(self.problems))
        data, runs = self.data, self.runs
        corpus = ref.read_manifest(self.corpus(self.last_index))
        clean = ref.read_manifest(data / "clean.json")
        train_side = ref.read_manifest(data / "split_train.json", with_frames=False)
        val = ref.read_manifest(data / "split_val.json")
        checks.check_aggregate(corpus, clean)
        checks.check_split(clean, train_side, val, CLI_RATIO)
        checks.check_analyze(json.loads(self.outputs["analyze"][2]), clean)

        header, weights, biases = ref.read_checkpoint(runs / "mixer.ckpt")
        hw = tuple(header["target_hw"])
        checks.check_eval(json.loads((runs / "eval.json").read_text()), weights, biases, hw, val)
        checks.check_mix(
            ref.read_manifest(runs / "mixed.json"),
            json.loads((runs / "mixed.sidecar.json").read_text()),
            clean,
        )
        checks.check_empirical_risk(
            json.loads((runs / "risk_empirical.json").read_text()),
            ref.empirical_risk(weights, biases, val["frames"], val["votes"], hw),
            len(val["ids"]),
        )
        rng = np.random.default_rng([self.seed, 1])
        for mode in ("soft", "hard"):
            mean, se = ref.vicinal_risk(weights, biases, val["frames"], val["votes"], hw,
                                        alpha=0.8, draws=CLI_DRAWS, label_mode=mode, rng=rng)
            checks.check_vicinal_risk(json.loads((runs / f"risk_{mode}.json").read_text()), mean, se, CLI_DRAWS)
        if self.outputs["train-fresh-tree"][0] == 0:
            checks.require((self.fresh / "runs" / "mixer.ckpt").is_file(), "train exited 0 without a checkpoint")


WORKLOADS = {
    "train-mix": train_mix,
    "train-fixed": train_fixed,
    "cli-walkthrough": CliWorkload,
}
