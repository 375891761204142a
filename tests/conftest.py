import json
from pathlib import Path

import numpy as np
import pytest

from safelq import build_problem

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_config(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text())


def load_spec(name: str):
    return build_problem(load_config(name))


def constant_spec(a_mat, b_mat, level):
    # constant (A, B), K = level up to t_max, R = I/2, identity h
    n, m = b_mat.shape
    return build_problem({
        "dims": {"state": n, "control": m},
        "A": {"variant": "constant", "params": {"value": a_mat.tolist()}},
        "B": {"variant": "constant", "params": {"value": b_mat.tolist()}},
        "K": {"variant": "truncated_constant",
              "params": {"level": level, "t_cut": 64.0}},
        "a": {"variant": "linear", "params": {"coeff": 1.0}},
        "b": {"variant": "power", "params": {"coeff": 1.0, "exponent": 2.0}},
        "h": {"variant": "identity"},
        "omega": {"variant": "ball",
                  "params": {"center": [0.0] * n, "radius": 1.0}},
        "grid": {"t0": 0.0, "dt": 0.05, "t_max": 64.0}})


def within_rounding(a, b):
    # 1e-13 relative to max(1, max |b|): far above the 2x2 float sweeps'
    # distance from a BLAS reference (1.6e-16 on P, 6.1e-15 on dP over five
    # random full A and B) and Gamma's (8.5e-16 over 22), far below any
    # error of the method
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= 1e-13 * max(
        1.0, float(np.max(np.abs(b))))


@pytest.fixture(scope="session")
def scalar_spec():
    return load_spec("scalar_demo.json")


@pytest.fixture(scope="session")
def cubic_spec():
    return load_spec("cubic_demo.json")


@pytest.fixture(scope="session")
def timevarying_spec():
    return load_spec("timevarying_demo.json")


@pytest.fixture(scope="session")
def expk_spec():
    return load_spec("expk_demo.json")


@pytest.fixture(scope="session")
def ball2d_spec():
    return load_spec("ball2d_demo.json")


@pytest.fixture(scope="session")
def geometric_spec():
    return load_spec("geometric_ball.json")


@pytest.fixture(scope="session")
def outward_spec():
    return load_spec("outward_drift.json")


@pytest.fixture(scope="session")
def full2d_spec():
    # ball2d_demo with a full A and B: the shipped A and B are diagonal,
    # where a product's rounding hardly depends on its order
    config = load_config("ball2d_demo.json")
    rng = np.random.default_rng(18)
    config["A"]["params"]["value"] = rng.uniform(-2.0, 1.0, (2, 2)).tolist()
    config["B"]["params"] = {"value": rng.uniform(0.5, 1.5, (2, 2)).tolist()}
    return build_problem(config)
