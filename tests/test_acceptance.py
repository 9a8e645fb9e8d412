"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Each test is deterministic; the two training-based criteria pin their
synthetic-data and optimizer settings explicitly.
"""

import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest

from midas.cli import main as cli_main
from midas.dataset import (
    load_manifest,
    partition_by_ambiguity,
    save_manifest,
    stratified_split,
)
from midas.labels import (
    CLASS_NAMES,
    VoteRecord,
    aggregate_votes,
    decompose,
    hard_label_of,
    one_hot,
    renormalize_softmax,
)
from midas.metrics import confusion, per_class_accuracy, uar, war
from midas.mixer import midas_batch, mix_clips, mix_labels, sample_lambda
from midas.model import TrainConfig, featurize, gradient, init_classifier, train
from midas.synth import SynthConfig, generate
from midas.vicinal import check_vicinal_identity, reparameterize

from conftest import make_clip, make_dataset, unanimous_rows


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[{number:02d}] {label}{suffix}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


# ---------------------------------------------------------------------------
# 1. Blend-weight identity suite
# ---------------------------------------------------------------------------

def test_01_identity_suite():
    ok = False
    detail = ""
    try:
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        n = 100_000
        probs = rng.dirichlet(np.ones(7), size=n)
        counts = rng.multinomial(10, probs)
        true_classes = rng.integers(0, 7, size=n)
        lams = rng.random(n)  # [0, 1), so the degenerate corner never occurs
        qjs = rng.dirichlet(np.ones(7), size=n)
        worst = 0.0
        for k in range(n):
            qi = counts[k] / 10.0
            d = decompose(qi, VoteRecord(counts[k]), int(true_classes[k]))
            residual = check_vicinal_identity(
                float(lams[k]), qi, qjs[k], d, int(true_classes[k]), annotators=10
            )
            if residual > worst:
                worst = residual
        elapsed = time.monotonic() - start

        votes = np.zeros(7, dtype=np.int64)
        votes[3] = 6
        votes[0] = 4
        d = decompose(votes / 10.0, VoteRecord(votes), true_class=3)
        params = reparameterize(0.5, d, one_hot(0, 7), annotators=10)

        ok = worst <= 1e-12 and params.lambda_prime == 0.3 and elapsed < 10.0
        detail = f"max residual {worst:.2e}, lambda' {params.lambda_prime}, {elapsed:.1f}s"
    finally:
        _verdict(1, "blend-weight identity over 1e5 fuzzed tuples", ok, detail)


# ---------------------------------------------------------------------------
# 2. Mixing invariants
# ---------------------------------------------------------------------------

def test_02_mixing_invariants():
    ok = False
    detail = ""
    try:
        start = time.monotonic()
        rng = np.random.default_rng(7)

        a = make_clip("a", shape=(3, 8, 6, 1), rng=rng)
        b = make_clip("b", shape=(3, 8, 6, 1), rng=rng)
        endpoints = np.array_equal(mix_clips(a, b, 1.0).frames, a.frames) and np.array_equal(
            mix_clips(a, b, 0.0).frames, b.frames
        )

        closure = True
        for _ in range(1000):
            ya, yb = rng.dirichlet(np.ones(7), size=2)
            lam = float(rng.random())
            for normalize in (False, True):
                mixed = mix_labels(ya, yb, lam, normalize=normalize)
                if abs(float(mixed.sum()) - 1.0) > 1e-9 or np.any(mixed < -1e-15):
                    closure = False

        ds = make_dataset(unanimous_rows([0, 1, 2, 0, 1, 2, 0], class_count=3))
        batch = midas_batch(ds, batch_size=10_000, alpha=0.8, rng=rng)
        no_self = all(s.source_i != s.source_j for s in batch.samples)

        commute = True
        for _ in range(20):
            u = make_clip("u", shape=(2, 7, 5, 2), rng=rng)
            v = make_clip("v", shape=(2, 7, 5, 2), rng=rng)
            lam = float(rng.random())
            direct = featurize(mix_clips(u, v, lam), (3, 3))
            split = lam * featurize(u, (3, 3)) + (1 - lam) * featurize(v, (3, 3))
            if np.max(np.abs(direct - split)) > 1e-6:
                commute = False
        elapsed = time.monotonic() - start

        ok = endpoints and closure and no_self and commute and elapsed < 30.0
        detail = f"{elapsed:.1f}s"
    finally:
        _verdict(2, "mixing invariants (endpoints, simplex, pairing, linearity)", ok, detail)


# ---------------------------------------------------------------------------
# 3. Softmax renormalization
# ---------------------------------------------------------------------------

def test_03_softmax_normalization():
    ok = False
    try:
        rng = np.random.default_rng(3)

        shift_ok = True
        for _ in range(1000):
            vec = rng.random(7)
            shift = float(rng.normal(scale=5.0))
            if np.max(np.abs(renormalize_softmax(vec) - renormalize_softmax(vec + shift))) > 1e-12:
                shift_ok = False

        argmax_ok = True
        for _ in range(1000):
            vec = rng.random(7)
            winner = int(rng.integers(0, 7))
            vec[winner] = vec.max() + float(rng.uniform(0.01, 1.0))
            if int(np.argmax(renormalize_softmax(vec))) != winner:
                argmax_ok = False

        half = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        exps = [math.exp(v) for v in half]
        independent = np.array([e / sum(exps) for e in exps])
        got = renormalize_softmax(half)
        worked_ok = np.max(np.abs(got - independent)) <= 1e-12 and np.allclose(
            got,
            [0.19871, 0.19871, 0.12052, 0.12052, 0.12052, 0.12052, 0.12052],
            atol=1e-5,
        )

        ok = shift_ok and argmax_ok and worked_ok
    finally:
        _verdict(3, "softmax renormalization (shift, argmax, worked value)", ok)


# ---------------------------------------------------------------------------
# 4. Gradient correctness
# ---------------------------------------------------------------------------

def test_04_gradient_against_finite_differences():
    ok = False
    detail = ""
    try:
        h = 1e-5
        worst = 0.0
        for point in range(50):
            rng = np.random.default_rng(1000 + point)
            model = init_classifier(5, 3, (4,), rng)
            x = rng.random((4, 5))
            t = rng.dirichlet(np.ones(3), size=4)
            w_grads, b_grads, _ = gradient(model, x, t)
            for k in range(len(model.weights)):
                for kind in ("w", "b"):
                    grads = w_grads if kind == "w" else b_grads
                    it = np.nditer(grads[k], flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        probe = model.copy()
                        arr = probe.weights[k] if kind == "w" else probe.biases[k]
                        arr[idx] += h
                        up = gradient(probe, x, t)[2]
                        arr[idx] -= 2 * h
                        down = gradient(probe, x, t)[2]
                        numeric = (up - down) / (2 * h)
                        rel = abs(grads[k][idx] - numeric) / max(abs(numeric), 1e-5)
                        if rel > worst:
                            worst = rel
        ok = worst <= 1e-4
        detail = f"max relative error {worst:.2e}"
    finally:
        _verdict(4, "analytic gradient vs central differences at 50 points", ok, detail)


# ---------------------------------------------------------------------------
# 5. Metric oracles
# ---------------------------------------------------------------------------

def _brute_force_scores(preds, truths, class_count):
    table = [[0] * class_count for _ in range(class_count)]
    for p, t in zip(preds, truths):
        table[t][p] += 1
    recalls = np.full(class_count, np.nan)
    for c in range(class_count):
        row_total = sum(table[c])
        if row_total:
            recalls[c] = table[c][c] / row_total
    present = ~np.isnan(recalls)
    uar_value = float(recalls[present].mean())
    war_value = sum(table[c][c] for c in range(class_count)) / len(preds)
    return np.array(table), recalls, uar_value, war_value


def test_05_metric_oracles():
    ok = False
    try:
        rng = np.random.default_rng(55)
        streams_ok = True
        for _ in range(100):
            c = int(rng.integers(2, 9))
            size = int(rng.integers(20, 200))
            preds = rng.integers(0, c, size=size)
            truths = rng.integers(0, c, size=size)
            cm = confusion(preds, truths, c)
            table, recalls, uar_ref, war_ref = _brute_force_scores(preds, truths, c)
            acc = per_class_accuracy(cm)
            same_nan = np.array_equal(np.isnan(acc), np.isnan(recalls))
            if not (
                np.array_equal(cm.counts, table)
                and same_nan
                and np.array_equal(acc[~np.isnan(acc)], recalls[~np.isnan(recalls)])
                and uar(cm) == uar_ref
                and war(cm) == war_ref
            ):
                streams_ok = False

        hand = confusion([0] * 8 + [1] * 2 + [0] * 2 + [1] * 3, [0] * 10 + [1] * 5, 2)
        hand_ok = (
            np.array_equal(hand.counts, [[8, 2], [2, 3]])
            and uar(hand) == pytest.approx(0.7, abs=1e-12)
            and war(hand) == pytest.approx(0.73333, abs=1e-5)
        )

        balanced_ok = True
        for _ in range(20):
            c = int(rng.integers(2, 6))
            per_class = int(rng.integers(5, 40))
            truths = np.repeat(np.arange(c), per_class)
            preds = rng.integers(0, c, size=truths.size)
            cm = confusion(preds, truths, c)
            if abs(uar(cm) - war(cm)) > 1e-12:
                balanced_ok = False

        ok = streams_ok and hand_ok and balanced_ok
    finally:
        _verdict(5, "UAR/WAR/per-class vs brute-force tallies", ok)


# ---------------------------------------------------------------------------
# 6. Vote aggregation fidelity
# ---------------------------------------------------------------------------

def test_06_aggregation_worked_example():
    ok = False
    try:
        votes = VoteRecord(np.array([0, 0, 2, 1, 0, 6, 1], dtype=np.int64))
        soft = aggregate_votes(votes)
        expected = np.array([0.0, 0.0, 0.2, 0.1, 0.0, 0.6, 0.1])
        hard = hard_label_of(soft)
        ok = (
            np.array_equal(soft, expected)
            and hard == 5
            and CLASS_NAMES[hard] == "Disgust"
        )
    finally:
        _verdict(6, "ten-vote worked example aggregates to Disgust", ok)


# ---------------------------------------------------------------------------
# 7. Beta sampling moments
# ---------------------------------------------------------------------------

def test_07_beta_moments():
    ok = False
    detail = ""
    try:
        rng = np.random.default_rng(77)
        draws = np.array([sample_lambda(0.8, rng).lam for _ in range(100_000)])
        mean = float(draws.mean())
        var = float(draws.var())
        target_var = 1.0 / (4.0 * (2.0 * 0.8 + 1.0))
        ok = abs(mean - 0.5) <= 0.01 and abs(var - target_var) <= 0.005
        detail = f"mean {mean:.4f}, var {var:.5f} vs {target_var:.5f}"
    finally:
        _verdict(7, "Beta(0.8, 0.8) sampling moments over 1e5 draws", ok, detail)


# ---------------------------------------------------------------------------
# 8. Directional main result
# ---------------------------------------------------------------------------

# Pinned desk-scale regime: wide enough to memorize hard labels, noisy enough
# annotators that soft labels carry signal, raw (unnormalized) mixed targets.
_MAIN_CONFIG = dict(
    epochs=150, learning_rate=0.5, batch_size=64, alpha=0.8,
    normalize=False, hidden=(64, 32), target_hw=(8, 8),
)
_MAIN_SYNTH = dict(
    class_count=7, samples_per_class=200, rho=0.5, tau=0.8, sigma_within=0.3,
)


def _main_result_scores(seeds):
    scores = {"hard": [], "soft": [], "midas": []}
    for s in seeds:
        ds = generate(SynthConfig(seed=100 + s, **_MAIN_SYNTH))
        pair = stratified_split(ds, ratio=0.8, seed=s)
        for mode in scores:
            config = TrainConfig(label_mode=mode, seed=s, **_MAIN_CONFIG)
            _, history = train(pair.train, config, validation=pair.validation)
            scores[mode].append(float(history.val_uar[history.best_epoch]))
    return {mode: float(np.mean(vals)) for mode, vals in scores.items()}


def test_08_directional_main_result():
    ok = False
    detail = ""
    try:
        start = time.monotonic()
        means = _main_result_scores(range(5))
        elapsed = time.monotonic() - start
        gain = means["midas"] - means["hard"]
        ok = (
            means["midas"] > means["soft"] > means["hard"]
            and gain >= 0.01
            and elapsed < 600.0
        )
        detail = (
            f"hard {means['hard']:.4f} < soft {means['soft']:.4f} < "
            f"midas {means['midas']:.4f}, gain {gain * 100:.2f} pts, {elapsed:.0f}s"
        )
    finally:
        _verdict(8, "mean val UAR ordering midas > soft > hard over 5 seeds", ok, detail)


# ---------------------------------------------------------------------------
# 9. Ambiguity ablation analog
# ---------------------------------------------------------------------------

def _ablation_scores(seed, threshold, epochs=150):
    ds = generate(SynthConfig(seed=100 + seed, **_MAIN_SYNTH))
    pair = stratified_split(ds, ratio=0.8, seed=seed)
    clear, mixed = partition_by_ambiguity(
        pair.train, threshold=threshold, balance=True, seed=seed
    )
    config = dict(_MAIN_CONFIG, epochs=epochs)
    scores = []
    for group in (clear, mixed):
        cfg = TrainConfig(label_mode="soft", seed=seed, **config)
        _, history = train(group, cfg, validation=pair.validation)
        scores.append(float(history.val_uar[history.best_epoch]))
    return scores[0], scores[1], clear, mixed


def test_09_ambiguity_ablation():
    ok = False
    detail = ""
    try:
        clear_scores = []
        mixed_scores = []
        per_seed_ok = True
        for s in range(5):
            clear_uar, mixed_uar, _, _ = _ablation_scores(s, threshold=0.9)
            clear_scores.append(clear_uar)
            mixed_scores.append(mixed_uar)
            if mixed_uar < clear_uar:
                per_seed_ok = False

        # threshold 0 puts every sample in both groups, so the two training
        # runs see identical data and the gap must vanish exactly
        null_ok = True
        for s in range(2):
            clear_uar, mixed_uar, clear, mixed = _ablation_scores(
                s, threshold=0.0, epochs=40
            )
            same_ids = [e.clip.clip_id for e in clear.entries] == [
                e.clip.clip_id for e in mixed.entries
            ]
            if not same_ids or abs(clear_uar - mixed_uar) > 1e-12:
                null_ok = False

        ok = per_seed_ok and null_ok
        detail = (
            f"clear {np.mean(clear_scores):.4f} vs mixed {np.mean(mixed_scores):.4f}, "
            f"null gap 0"
        )
    finally:
        _verdict(9, "mixed-group training beats clear-group on all 5 seeds", ok, detail)


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def _run_cli_pipeline(root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    run = lambda *argv: cli_main([str(a) for a in argv])
    assert run(
        "synth", "--out", root / "data.json", "--classes", "3", "--per-class", "6",
        "--frames", "2", "--height", "4", "--width", "4", "--seed", "9",
    ) == 0
    assert run("aggregate", "--manifest", root / "data.json",
               "--out", root / "clean.json") == 0
    assert run("split", "--manifest", root / "clean.json", "--out", root / "part",
               "--ratio", "0.75", "--seed", "1") == 0
    assert run(
        "train", "--manifest", root / "part_train.json", "--val", root / "part_val.json",
        "--out", root / "model.ckpt", "--labels", "soft", "--epochs", "2", "--seed", "1",
    ) == 0
    assert run("eval", "--checkpoint", root / "model.ckpt",
               "--manifest", root / "part_val.json", "--out", root / "eval.json") == 0
    assert run(
        "sweep-alpha", "--manifest", root / "part_train.json",
        "--val", root / "part_val.json", "--grid", "0.4,0.8", "--labels", "midas",
        "--epochs", "1", "--seed", "1", "--out", root / "sweep.json",
    ) == 0
    assert run("analyze", "--manifest", root / "clean.json", "--out", root / "analyze.json",
               "--csv", root / "tables") == 0
    assert run(
        "ambiguity-ablation", "--manifest", root / "clean.json", "--threshold", "0.9",
        "--ratio", "0.75", "--epochs", "1", "--seed", "1", "--out", root / "ablation.json",
    ) == 0
    assert run("mix", "--manifest", root / "clean.json", "--out", root / "mixed.json",
               "--n", "8", "--seed", "2") == 0
    assert run(
        "risk", "--manifest", root / "part_val.json", "--checkpoint", root / "model.ckpt",
        "--draws", "32", "--seed", "3", "--out", root / "risk.json",
    ) == 0


def test_10_cli_determinism(tmp_path, capsys):
    ok = False
    detail = ""
    try:
        for name in ("runA", "runB"):
            _run_cli_pipeline(tmp_path / name)
        capsys.readouterr()  # drop subcommand progress chatter
        files_a = sorted(
            p.relative_to(tmp_path / "runA")
            for p in (tmp_path / "runA").rglob("*") if p.is_file()
        )
        files_b = sorted(
            p.relative_to(tmp_path / "runB")
            for p in (tmp_path / "runB").rglob("*") if p.is_file()
        )
        same_names = files_a == files_b
        mismatches = [
            str(rel) for rel in files_a
            if not filecmp.cmp(tmp_path / "runA" / rel, tmp_path / "runB" / rel,
                               shallow=False)
        ]
        ok = same_names and not mismatches and len(files_a) >= 10
        detail = f"{len(files_a)} files compared" + (
            f"; mismatched: {mismatches}" if mismatches else ""
        )
    finally:
        _verdict(10, "every CLI subcommand bit-identical across reruns", ok, detail)


# ---------------------------------------------------------------------------
# 11. Format round-trip
# ---------------------------------------------------------------------------

def test_11_format_round_trip(tmp_path):
    ok = False
    detail = ""
    try:
        ds = generate(SynthConfig(class_count=5, samples_per_class=10, rho=0.0,
                                  frames=3, height=6, width=6, seed=21))
        assert len(ds) == 50
        first = tmp_path / "a" / "data.json"
        second = tmp_path / "b" / "data.json"
        first.parent.mkdir()
        second.parent.mkdir()
        save_manifest(ds, first)
        reloaded = load_manifest(first)
        save_manifest(reloaded, second)
        manifest_same = first.read_bytes() == second.read_bytes()
        clips_a = sorted((tmp_path / "a" / "data_clips").iterdir())
        clips_b = sorted((tmp_path / "b" / "data_clips").iterdir())
        names_same = [p.name for p in clips_a] == [p.name for p in clips_b]
        payload_same = all(
            a.read_bytes() == b.read_bytes() for a, b in zip(clips_a, clips_b)
        )
        ok = manifest_same and names_same and payload_same and len(clips_a) == 50
        detail = "50 clips"
    finally:
        _verdict(11, "manifest and clip binaries survive save-load-save", ok, detail)
