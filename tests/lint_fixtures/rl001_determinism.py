"""Fixture: RL001 determinism violations (do not import; parsed by reprolint)."""

import random
import time

import numpy as np
import numpy.random
import numpy.random as npr
from numpy import random as nprandom
from numpy.random import default_rng, permutation


def unseeded_module_rng():
    return random.random() + random.randint(0, 10)  # 2 findings


def unseeded_constructor():
    rng = random.Random()  # finding: unseeded
    return rng


def time_seeded():
    rng = random.Random(int(time.time()))  # finding: time-derived seed
    return rng


def numpy_legacy():
    np.random.seed(0)  # finding: global numpy state
    return np.random.rand(4)  # finding: global numpy state


def numpy_unseeded():
    return np.random.default_rng()  # finding: unseeded generator


def numpy_imported_names():
    rng = default_rng()  # finding: unseeded generator
    return rng, permutation(10)  # finding: global numpy state


def numpy_random_module_aliases(x):
    npr.shuffle(x)  # finding: global numpy state
    nprandom.seed(0)  # finding: global numpy state
    return npr.rand(3), numpy.random.permutation(10)  # 2 findings: global numpy state


def seed_from_clock():
    seed = time.time_ns()  # finding: wall-clock seed material
    return seed


def stream_helper_without_seed():
    from repro.resilience.fuzz import rng_stream

    return rng_stream()  # finding: stream helper with no seed material


def stream_helper_time_seeded():
    from repro.resilience import fuzz

    return fuzz.rng_stream(time.time_ns(), "case")  # finding: time-derived


def fine(seed: int):
    # the blessed idioms: explicit seed threaded from the caller
    from repro.resilience.fuzz import rng_stream

    return random.Random(seed), np.random.default_rng(seed), rng_stream(seed, "case", 0)
