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
