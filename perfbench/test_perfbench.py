"""Tests of the benchmark's reference code, output checks and tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``. Every
output check has a case that passes on a correct hand-made output and one
that fails once that output is corrupted.
"""

import json
import math
import struct
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
import run
from checks import CheckFailed
from tracer import Tracer


def write_mdsc(path: Path, frames: np.ndarray) -> None:
    path.write_bytes(struct.pack("<4s5I", b"MDSC", *frames.shape, 0) + frames.astype("<f4").tobytes())


def write_manifest(path: Path, ids, votes, frames) -> None:
    clips = path.parent / f"{path.stem}_clips"
    clips.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, (clip_id, v, f) in enumerate(zip(ids, votes, frames)):
        write_mdsc(clips / f"{k:05d}.mdsc", f)
        entries.append({"clip_id": clip_id, "clip_file": f"{clips.name}/{k:05d}.mdsc", "votes": [int(x) for x in v]})
    path.write_text(json.dumps({"version": 1, "class_names": ["a", "b", "c"], "entries": entries}))


def dataset(n=6, shape=(2, 4, 4, 1), seed=0):
    rng = np.random.default_rng(seed)
    votes = np.array([[5, 1, 0], [0, 4, 2], [1, 1, 4], [3, 0, 2], [0, 5, 1], [2, 1, 3]][:n])
    return {
        "class_names": ["a", "b", "c"],
        "ids": [f"c{k}" for k in range(n)],
        "votes": votes,
        "frames": rng.random((n,) + shape).astype(np.float32),
    }


# ---------------------------------------------------------------------------
# Reference code
# ---------------------------------------------------------------------------

def test_read_mdsc_round_trips_and_rejects_bad_headers(tmp_path):
    frames = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2) / 24
    write_mdsc(tmp_path / "a.mdsc", frames)
    assert np.array_equal(ref.read_mdsc(tmp_path / "a.mdsc"), frames)
    raw = (tmp_path / "a.mdsc").read_bytes()
    (tmp_path / "b.mdsc").write_bytes(b"MDSX" + raw[4:])
    (tmp_path / "c.mdsc").write_bytes(raw[:-4])
    for name in ("b.mdsc", "c.mdsc"):
        with pytest.raises(ref.FormatError):
            ref.read_mdsc(tmp_path / name)


def test_read_checkpoint_splits_blocks_per_layer(tmp_path):
    w0 = np.arange(6, dtype=np.float32).reshape(2, 3)
    b0 = np.array([1, 2, 3], np.float32)
    w1 = np.arange(3, dtype=np.float32).reshape(3, 1)
    b1 = np.array([-1], np.float32)
    header = {"format": "MDSW", "layer_sizes": [2, 3, 1], "target_hw": [1, 1]}
    body = b"".join(a.astype("<f4").tobytes() for a in (w0, b0, w1, b1))
    (tmp_path / "m.ckpt").write_bytes(json.dumps(header).encode() + b"\n" + body)
    got_header, weights, biases = ref.read_checkpoint(tmp_path / "m.ckpt")
    assert got_header["target_hw"] == [1, 1]
    assert [w.tolist() for w in weights] == [w0.tolist(), w1.tolist()]
    assert [b.tolist() for b in biases] == [b0.tolist(), b1.tolist()]
    (tmp_path / "short.ckpt").write_bytes(json.dumps(header).encode() + b"\n" + body[:-4])
    with pytest.raises(ref.FormatError):
        ref.read_checkpoint(tmp_path / "short.ckpt")


def test_read_manifest_returns_arrays(tmp_path):
    d = dataset(3)
    write_manifest(tmp_path / "m.json", d["ids"], d["votes"], d["frames"])
    got = ref.read_manifest(tmp_path / "m.json")
    assert got["ids"] == d["ids"]
    assert np.array_equal(got["votes"], d["votes"])
    assert np.array_equal(got["frames"], d["frames"])


def test_block_mean_features_by_hand():
    # One clip, two frames of 5x2x1; rows split 2 ways are [0, 2) and [2, 5).
    frame = np.arange(10, dtype=np.float64).reshape(5, 2, 1)
    frames = np.stack([frame, frame + 2.0])[None]
    got = ref.block_mean_features(frames, (2, 1))
    assert got.tolist() == [[np.mean([0, 1, 2, 3]) + 1.0, np.mean([4, 5, 6, 7, 8, 9]) + 1.0]]


def test_forward_by_hand():
    x = np.array([[1.0, 0.0]])
    w0, b0 = np.array([[0.5], [2.0]]), np.array([0.0])
    w1, b1 = np.array([[1.0, -1.0]]), np.array([0.0, 0.0])
    h = math.tanh(0.5)
    p = math.exp(h) / (math.exp(h) + math.exp(-h))
    assert np.allclose(ref.forward([w0, w1], [b0, b1], x), [[p, 1 - p]], atol=1e-15)


def test_recall_scores_by_hand():
    uar, war = ref.recall_scores([0, 0, 1, 2, 2], [0, 1, 1, 2, 2], 4)  # class 3 absent
    assert uar == pytest.approx((1.0 + 0.5 + 1.0) / 3)
    assert war == pytest.approx(4 / 5)


def test_mix_frames_endpoints_and_clipping():
    a = np.array([[0.25, 1.0]], np.float32)
    b = np.array([[0.75, 0.0]], np.float32)
    assert np.array_equal(ref.mix_frames(a, b, [1.0]), a)
    assert np.array_equal(ref.mix_frames(a, b, [0.0]), b)
    assert ref.mix_frames(a * 4, b, [1.0]).max() == 1.0


def test_risks_of_a_uniform_predictor_are_log_c():
    d = dataset()
    weights, biases = [np.zeros((4, 3))], [np.zeros(3)]
    assert ref.empirical_risk(weights, biases, d["frames"], d["votes"], (2, 2)) == pytest.approx(math.log(3))
    for mode in ("soft", "hard"):
        mean, se = ref.vicinal_risk(weights, biases, d["frames"], d["votes"], (2, 2), 0.8, 50, mode,
                                    np.random.default_rng(0), chunk=7)
        assert mean == pytest.approx(math.log(3)) and se == pytest.approx(0.0, abs=1e-12)


def test_vicinal_risk_mean_matches_exhaustive_average():
    # With alpha large, lam is near 1/2; the mean over uniform distinct pairs
    # converges to the average over all ordered pairs.
    d = dataset()
    rng = np.random.default_rng(1)
    weights, biases = [rng.normal(size=(4, 3))], [np.zeros(3)]
    mean, se = ref.vicinal_risk(weights, biases, d["frames"], d["votes"], (2, 2), 1e6, 20000, "soft",
                                np.random.default_rng(2))
    n = len(d["ids"])
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    i, j = np.array(pairs).T
    mixed = ref.mix_frames(d["frames"][i], d["frames"][j], np.full(len(pairs), 0.5))
    post = ref.forward(weights, biases, ref.block_mean_features(mixed, (2, 2)))
    q = ref.soft_labels(d["votes"])
    exact = ref.cross_entropy(post, 0.5 * q[i] + 0.5 * q[j]).mean()
    assert abs(mean - exact) < 5 * se + 1e-3


# ---------------------------------------------------------------------------
# Checks: each passes on a correct output and fails on a corrupted one
# ---------------------------------------------------------------------------

def test_check_history():
    uar = np.array([0.2, 0.5, 0.5, 0.4])
    checks.check_history(np.ones(4), uar, uar, 1, 4)
    with pytest.raises(CheckFailed):
        checks.check_history(np.ones(4), uar, uar, 2, 4)  # a later tie
    with pytest.raises(CheckFailed):
        checks.check_history(np.array([1.0, np.nan, 1.0, 1.0]), uar, uar, 1, 4)
    with pytest.raises(CheckFailed):
        checks.check_history(np.ones(3), uar, uar, 1, 4)


def test_check_model_uar():
    d = dataset()
    weights, biases = [np.eye(4, 3) * 50], [np.zeros(3)]
    post = ref.forward(weights, biases, ref.block_mean_features(d["frames"], (2, 2)))
    uar, _ = ref.recall_scores(post.argmax(axis=1), d["votes"].argmax(axis=1), 3)
    checks.check_model_uar(weights, biases, d["frames"], d["votes"], (2, 2), uar, floor=-1.0)
    with pytest.raises(CheckFailed):
        checks.check_model_uar(weights, biases, d["frames"], d["votes"], (2, 2), uar + 1 / 6, floor=-1.0)
    with pytest.raises(CheckFailed):
        checks.check_model_uar(weights, biases, d["frames"], d["votes"], (2, 2), uar, floor=1.0)


def mix_draw(normalize=False):
    d = dataset()
    left = np.array([0, 1, 2, 3, 4, 5, 3, 1, 0])
    right = np.array([1, 2, 3, 4, 5, 0, 0, 4, 2])
    lams = np.linspace(0, 1, left.size)
    q = ref.soft_labels(d["votes"])
    labels = lams[:, None] * q[left] + (1 - lams[:, None]) * q[right]
    if normalize:
        labels = np.exp(labels) / np.exp(labels).sum(axis=1, keepdims=True)
    clips = ref.mix_frames(d["frames"][left], d["frames"][right], lams)
    return dict(lams=lams, left=left, right=right, clips=clips, labels=labels,
                frames=d["frames"], targets=q, normalize=normalize)


@pytest.mark.parametrize("normalize", [False, True])
def test_check_mix_draw_accepts_a_correct_draw(normalize):
    checks.check_mix_draw(**mix_draw(normalize))


@pytest.mark.parametrize("corrupt", ["self_pair", "left_twice", "clip", "label"])
def test_check_mix_draw_rejects_corruption(corrupt):
    draw = mix_draw()
    if corrupt == "self_pair":
        draw["right"] = draw["right"].copy()
        draw["right"][7] = draw["left"][7]
    elif corrupt == "left_twice":
        draw["left"] = draw["left"].copy()
        draw["left"][6] = draw["left"][7]
    elif corrupt == "clip":
        draw["clips"] = draw["clips"].copy()
        draw["clips"][2, 0, 0, 0, 0] += 1e-3
    else:
        draw["labels"] = draw["labels"].copy()
        draw["labels"][4] = draw["labels"][4][::-1]
    with pytest.raises(CheckFailed):
        checks.check_mix_draw(**draw)


def corpus_and_clean():
    corpus = dataset()
    corpus["votes"] = np.array([[5, 1, 0], [3, 3, 0], [1, 1, 4], [2, 2, 2], [0, 5, 1], [2, 1, 3]])
    keep = [0, 2, 4, 5]
    clean = dict(corpus, ids=[corpus["ids"][k] for k in keep], votes=corpus["votes"][keep],
                 frames=corpus["frames"][keep])
    return corpus, clean


def test_check_aggregate():
    corpus, clean = corpus_and_clean()
    checks.check_aggregate(corpus, clean)
    with pytest.raises(CheckFailed):
        checks.check_aggregate(corpus, dict(clean, ids=clean["ids"][:-1], votes=clean["votes"][:-1],
                                            frames=clean["frames"][:-1]))
    with pytest.raises(CheckFailed):
        checks.check_aggregate(corpus, dict(clean, ids=clean["ids"][::-1]))


def split_of(clean, train_idx):
    def side(idx):
        return {"ids": [clean["ids"][k] for k in idx], "votes": clean["votes"][idx]}
    val_idx = [k for k in range(len(clean["ids"])) if k not in train_idx]
    return side(train_idx), side(val_idx)


def test_check_split():
    clean = dataset()  # top classes 0, 1, 2, 0, 1, 2: two per class
    train, val = split_of(clean, [0, 1, 5])  # floor(0.5 * 2 + 0.5) = 1 per class
    checks.check_split(clean, train, val, 0.5)
    train, val = split_of(clean, [0, 3, 1])
    with pytest.raises(CheckFailed):
        checks.check_split(clean, train, val, 0.5)  # class 0 twice, class 2 never
    train, val = split_of(clean, [0, 1, 5])
    with pytest.raises(CheckFailed):
        checks.check_split(clean, train, dict(val, ids=val["ids"][:-1]), 0.5)


def test_check_analyze():
    clean = dataset()
    shares = ref.soft_labels(clean["votes"])
    top = clean["votes"].argmax(axis=1)
    doc = {
        "coexistence": [shares[top == c].mean(axis=0).tolist() for c in range(3)],
        "missing_classes": [],
        "max_vote_histogram": np.bincount(clean["votes"].max(axis=1)).tolist(),
    }
    checks.check_analyze(doc, clean)
    bad = json.loads(json.dumps(doc))
    bad["coexistence"][1][0] += 0.01
    with pytest.raises(CheckFailed):
        checks.check_analyze(bad, clean)


def eval_bundle(val, weights, biases):
    post = ref.forward(weights, biases, ref.block_mean_features(val["frames"], (2, 2)))
    true = val["votes"].argmax(axis=1)
    pred = post.argmax(axis=1)
    uar, war = ref.recall_scores(pred, true, 3)
    samples = [
        {"clip_id": i, "true_class": int(t), "predicted_class": int(p), "posterior": row.tolist()}
        for i, t, p, row in zip(val["ids"], true, pred, post)
    ]
    return {"samples": samples, "uar": uar, "war": war}


def test_check_eval():
    val = dataset()
    weights, biases = [np.random.default_rng(3).normal(size=(4, 3)) * 5], [np.zeros(3)]
    bundle = eval_bundle(val, weights, biases)
    checks.check_eval(bundle, weights, biases, (2, 2), val)
    bad = json.loads(json.dumps(bundle))
    bad["samples"][0]["posterior"][0] += 1e-5
    with pytest.raises(CheckFailed):
        checks.check_eval(bad, weights, biases, (2, 2), val)
    bad = json.loads(json.dumps(bundle))
    bad["uar"] += 0.01
    with pytest.raises(CheckFailed):
        checks.check_eval(bad, weights, biases, (2, 2), val)


def mixed_output():
    source = dataset()
    sidecar = [{"lambda": 0.3, "source_i": "c0", "source_j": "c2"},
               {"lambda": 0.9, "source_i": "c5", "source_j": "c1"}]
    mixed = {
        "ids": ["mix-00000", "mix-00001"],
        "votes": source["votes"][[2, 5]],
        "frames": ref.mix_frames(source["frames"][[0, 5]], source["frames"][[2, 1]], [0.3, 0.9]),
    }
    return mixed, sidecar, source


def test_check_mix():
    mixed, sidecar, source = mixed_output()
    checks.check_mix(mixed, sidecar, source)
    with pytest.raises(CheckFailed):
        checks.check_mix(dict(mixed, frames=mixed["frames"][::-1]), sidecar, source)
    with pytest.raises(CheckFailed):
        checks.check_mix(mixed, [dict(sidecar[0], source_j="c0"), sidecar[1]], source)
    with pytest.raises(CheckFailed):
        checks.check_mix(dict(mixed, votes=mixed["votes"][::-1]), sidecar, source)


def test_check_empirical_risk():
    checks.check_empirical_risk({"value": 1.25, "draws": 6}, 1.25 + 1e-12, 6)
    with pytest.raises(CheckFailed):
        checks.check_empirical_risk({"value": 1.26, "draws": 6}, 1.25, 6)
    with pytest.raises(CheckFailed):
        checks.check_empirical_risk({"value": 1.25, "draws": 5}, 1.25, 6)


def test_check_vicinal_risk():
    checks.check_vicinal_risk({"value": 1.9, "stderr": 0.01, "draws": 100}, 1.93, 0.01, 100)
    with pytest.raises(CheckFailed):
        checks.check_vicinal_risk({"value": 1.9, "stderr": 0.01, "draws": 100}, 2.1, 0.01, 100)
    with pytest.raises(CheckFailed):
        checks.check_vicinal_risk({"value": 1.9, "stderr": 0.0, "draws": 100}, 1.9, 0.01, 100)


def test_check_known_failure():
    assert checks.check_known_failure(1, None, "trained\nerror: [Errno 2] No such file\n")
    assert not checks.check_known_failure(0, None, "")
    with pytest.raises(CheckFailed):
        checks.check_known_failure(-1, ValueError("bad target"), "")
    with pytest.raises(CheckFailed):
        checks.check_known_failure(1, None, "Traceback (most recent call last):\nerror: x\n")
    with pytest.raises(CheckFailed):
        checks.check_known_failure(2, None, "usage: midas\n")


# ---------------------------------------------------------------------------
# Tracer and the benchmark description
# ---------------------------------------------------------------------------

def test_tracer_self_time_parents_and_restore(monkeypatch):
    module = types.ModuleType("midas.fake_layer")

    def inner(x):
        return x + 1

    def outer(x, step=inner):
        return step(x) * 2

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "midas.fake_layer", module)
    tracer = Tracer(targets=(("midas.fake_layer", "outer", "fake.outer", None),
                             ("midas.fake_layer", "inner", "fake.inner", None)))
    tracer.install()
    assert module.outer(1) == 4
    tracer.uninstall()
    assert module.outer is outer and outer.__defaults__ == (inner,)
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_) = tracer.spans
    assert (inner_parent, outer_parent) == (outer_id, 0)
    totals = tracer.take()
    assert totals["fake.inner.calls"] == totals["fake.outer.calls"] == 1
    assert totals["fake.outer.self_s"] == pytest.approx(totals["fake.outer.s"] - totals["fake.inner.s"])
    assert tracer.take() == {}


class FakeWorkload:
    """One set-up and rounds of one operation; ``fault`` names the step that raises."""

    setup_repeats = 2

    def __init__(self, fault):
        self.fault = fault

    def describe(self):
        return {}

    def setup(self):
        if self.fault == "setup":
            raise CheckFailed("synth failed")
        return 0.01

    def prepare(self, k):
        pass

    def round(self, k):
        if self.fault == "round":
            raise KeyError("group_sizes")
        return {"attempted": 1, "failed": 0, "train_samples": 10, "train_s": 0.001}

    def check(self):
        if self.fault == "check":
            raise ref.FormatError("bad magic")


@pytest.mark.parametrize("fault, attempted", [(None, None), ("setup", 1), ("round", 1), ("check", None)])
def test_measure_reports_output_errors_as_incorrect(tmp_path, monkeypatch, fault, attempted):
    monkeypatch.setattr(run, "OUT", tmp_path)
    fake = types.ModuleType("workloads")
    fake.WORKLOADS = {"fake": lambda seed, workdir: FakeWorkload(fault)}
    monkeypatch.setitem(sys.modules, "workloads", fake)
    result = run.measure("fake", 0, 0.05, False, "stamp")
    assert result["correct"] is (fault is None)
    assert (result["problem"] is None) is (fault is None)
    if attempted is None:  # every round ran, so every metric is there
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == set(run.END_TO_END)
    else:  # the set-up or round that raised is one failed operation
        assert result["attempted"] == result["failed"] == attempted
        assert result["metrics"] == {}


def test_all_runs_each_workload_in_its_own_process(monkeypatch, capsys):
    # The first child holds 160 MiB; had the second shared its process, it
    # would report that peak as well.
    script = (
        "import json, resource, sys\n"
        "import numpy as np\n"
        "held = np.ones(160 << 20, np.uint8) if sys.argv[1] == 'big' else None\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print('progress')\n"
        "print(json.dumps({'correct': True, 'attempted': 2, 'failed': 1,"
        " 'metrics': {'peak_rss_mib': {'value': peak, 'unit': 'MiB'}}}))\n"
    )
    monkeypatch.setattr(run, "WORKLOAD_NAMES", ("big", "small"))
    monkeypatch.setattr(run, "child_command", lambda name, args: [sys.executable, "-c", script, name])
    assert run.run_each(types.SimpleNamespace()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["progress", "progress"]
    merged = json.loads(lines[-1])
    assert (merged["correct"], merged["attempted"], merged["failed"]) == (True, 4, 2)
    big, small = (merged["metrics"][f"{name}.peak_rss_mib"]["value"] for name in ("big", "small"))
    assert big > 160 and small < big - 100
