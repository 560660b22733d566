import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def offset_complexes():
    """The random complexes of test_facet_lookup_is_exact_for_any_vertex_ids
    with vertex ids near 2**40 and beyond int64: six per offset."""
    from steenrips.simplicial import build
    from steenrips.synthetic import random_filtered_complex

    rng = np.random.default_rng(43)
    complexes = []
    for offset in (2**40, 2**64):
        for _ in range(6):
            K = random_filtered_complex(rng, target_size=20)
            complexes.append(build([([offset + 977 * v for v in s], value)
                                    for s, value in zip(K.simplices, K.values)]))
    return complexes
