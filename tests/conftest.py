import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from steinergeom import primitives  # noqa: E402


@pytest.fixture
def cold_code_caches():
    """Empty the shape and first-leaf code caches, so that a test counting
    verifications or code searches does not see work done by earlier
    tests."""
    primitives._shape_code.cache_clear()
    primitives._least_leaf.cache_clear()
