import os

import numpy as np
import pytest
from hypothesis import settings

from nrfilter import ClassSchema, Chunk, iter_records

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# A CI runner keeps no example database, so a failing property test
# there prints the @reproduce_failure line that replays its case.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def fixture_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


@pytest.fixture(scope="session")
def sentence1():
    (record,) = list(iter_records(fixture_path("sentence1.jsonl")))
    return record


@pytest.fixture(scope="session")
def sentence2():
    (record,) = list(iter_records(fixture_path("sentence2.jsonl")))
    return record


def random_chunk(rng: np.random.Generator, max_tokens: int = 32, k_choices=(3, 5, 7)) -> Chunk:
    """A valid random chunk: rows drawn from a Dirichlet, so they sum to 1."""
    K = int(rng.choice(k_choices))
    T = int(rng.integers(1, max_tokens + 1))
    probs = rng.dirichlet(np.ones(K), size=T)
    schema = ClassSchema(tuple(f"E{j}" for j in range((K - 1) // 2)))
    texts = tuple(f"tok{t}" for t in range(T))
    return Chunk(f"rnd-{rng.integers(1 << 30)}", schema, texts, probs)
