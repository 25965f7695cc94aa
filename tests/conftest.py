import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield
    ray.shutdown()


@pytest.fixture
def scale_path(monkeypatch):
    """Context manager that forces every bounded ``light_table``
    collection onto its distributed scale path: inside it the byte
    budget is 0, so any non-empty input is "above the budget"."""
    from contextlib import contextmanager

    from go_htmldate_ray.stages import blocks

    @contextmanager
    def forced():
        with monkeypatch.context() as m:
            m.setattr(blocks, "LIGHT_TABLE_BYTES", 0)
            yield

    return forced
