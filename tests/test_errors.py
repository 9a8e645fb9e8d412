"""The shared argument checker and the arguments it guards across the package."""

import math

import numpy as np
import pytest

from midas.dataset import stratified_split
from midas.errors import InvalidInputError, check_number, check_sizes
from midas.labels import LabelDecomposition, one_hot
from midas.mixer import draw_pairs, midas_batch, mix_clips, mix_labels
from midas.model import TrainConfig
from midas.synth import SynthConfig, simulate_annotators
from midas.vicinal import reparameterize, vicinal_risk

from conftest import make_clip, make_dataset, unanimous_rows


class TestCheckNumber:
    @pytest.mark.parametrize("value", [0, 0.5, 1, np.float32(0.25), np.float64(1.0)])
    def test_returns_reals_as_given(self, value):
        got = check_number("x", value, 0, 1)
        assert got is value

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 10**400])
    def test_integral_returns_a_python_int(self, value):
        got = check_number("n", value, 0, integral=True)
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [
        True, False, np.bool_(True), "1", None, [1], math.nan, math.inf, -math.inf, 10**400,
    ])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(InvalidInputError, match="^weight must be a finite real number"):
            check_number("weight", value)

    @pytest.mark.parametrize("value", [True, 2.0, 2.5, np.float64(2.0), "2", None])
    def test_integral_rejects_non_integers(self, value):
        with pytest.raises(InvalidInputError, match="^count must be an int"):
            check_number("count", value, integral=True)

    def test_bounds_are_inclusive_unless_open(self):
        assert check_number("x", 0, 0, 1) == 0
        assert check_number("x", 1, 0, 1) == 1
        for value in (0, 1):
            with pytest.raises(InvalidInputError, match=r"x must be .* in \(0, 1\)"):
                check_number("x", value, 0, 1, open=True)
        with pytest.raises(InvalidInputError, match="x must be .* > 0, got 0"):
            check_number("x", 0, 0, open=True)
        with pytest.raises(InvalidInputError, match=r"x must be .* in \[0, 1\], got 1.5"):
            check_number("x", 1.5, 0, 1)
        with pytest.raises(InvalidInputError, match="x must be .* <= 2, got 3"):
            check_number("x", 3, high=2)

    def test_sizes(self):
        assert check_sizes("hw", [np.int64(2), 3], 2) == (2, 3)
        assert check_sizes("hidden", range(1, 3)) == (1, 2)
        for values in (None, 4, [2], [2, 3, 4], [0, 2], [2.0, 2], [True, 2], "ab"):
            with pytest.raises(InvalidInputError, match="hw"):
                check_sizes("hw", values, 2)


def _pair_dataset():
    return make_dataset(unanimous_rows([0, 1, 0, 1], class_count=2))


def _uniform(frames):
    return np.full((len(frames), 2), 0.5)


_a, _b = make_clip("a", value=0.5), make_clip("b", value=0.25)
_decomposition = LabelDecomposition(correct_count=1, wrong_mass=np.array([0.0, 0.5]))

# Calls that ended in a raw TypeError, or were accepted, before every scalar
# argument went through check_number.
BAD_ARGUMENTS = {
    "mix_clips lam": ("lam", lambda rng: mix_clips(_a, _b, "0.5")),
    "mix_labels lam": ("lam", lambda rng: mix_labels(one_hot(0, 2), one_hot(1, 2), "0.5")),
    "simulate_annotators tau": (
        "tau", lambda rng: simulate_annotators(one_hot(0, 2), 5, "x", rng)),
    "simulate_annotators annotators": (
        "annotators", lambda rng: simulate_annotators(one_hot(0, 2), 2.5, 0.3, rng)),
    "draw_pairs batch_size float": (
        "batch_size", lambda rng: draw_pairs(_pair_dataset(), 2.5, 0.8, rng)),
    "draw_pairs batch_size bool": (
        "batch_size", lambda rng: draw_pairs(_pair_dataset(), True, 0.8, rng)),
    "midas_batch batch_size": (
        "batch_size", lambda rng: midas_batch(_pair_dataset(), 2.0, 0.8, rng)),
    "vicinal_risk draws": (
        "draws", lambda rng: vicinal_risk(_uniform, _pair_dataset(), 0.8, 2.5, "soft", rng)),
    "stratified_split ratio": ("ratio", lambda rng: stratified_split(_pair_dataset(), "0.5", 0)),
    "one_hot class_count str": ("class_count", lambda rng: one_hot(0, "3")),
    "one_hot class_count float": ("class_count", lambda rng: one_hot(0, 2.5)),
    "reparameterize annotators": (
        "annotators", lambda rng: reparameterize(0.5, _decomposition, one_hot(0, 2), "x")),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_bad_scalar_argument_is_an_invalid_input_error(name, rng):
    argument, call = BAD_ARGUMENTS[name]
    with pytest.raises(InvalidInputError, match=f"^{argument} must be"):
        call(rng)


def test_numpy_integers_are_stored_as_ints():
    for config in (TrainConfig(seed=np.int64(3)), SynthConfig(seed=np.int64(3))):
        assert type(config.seed) is int and config.seed == 3
    assert TrainConfig(epochs=np.int64(3)).hash() == TrainConfig(epochs=3).hash()
    assert TrainConfig(hidden=np.array([4, 2])).hidden == (4, 2)
