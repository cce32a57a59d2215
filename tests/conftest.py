import os
import random

import pytest
from hypothesis import HealthCheck, settings

# Property tests draw the same fixed examples on every run: derandomized, no
# example database, no deadline, and without the one health check that
# depends on timing.
settings.register_profile(
    "deterministic",
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


def make_rng(salt: int = 0) -> random.Random:
    seed = int(os.environ.get("MCG_SPINLAB_SEED", "0"))
    return random.Random(seed + salt)


@pytest.fixture
def rng():
    return make_rng()
