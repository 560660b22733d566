"""Byte-identity gate: barcode JSON of 200 seeded random complexes.

Each seed's digest covers the canonical JSON of the ordinary barcode and
of the image and kernel barcodes of id, zero, Sq0 and Sq1 at every
source degree from 0 to min(2, dim).  The digests in golden_digests.json
were recorded from the code before the F2 elimination refactor; a
refactor or speedup that changes no output keeps them.  Re-record only
when outputs change on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from steenrips.cohomology import persistent_barcode
from steenrips.operations import Operation, image_barcode, kernel_barcode
from steenrips.synthetic import random_filtered_complex

DIGESTS = Path(__file__).with_name("golden_digests.json")
SEEDS = range(200)


def seed_digest(seed: int) -> str:
    K = random_filtered_complex(np.random.default_rng(seed), target_size=20)
    docs = [persistent_barcode(K, K.dimension).to_json_dict()]
    for ell in range(min(2, K.dimension) + 1):
        for op in (Operation.identity(ell), Operation.zero(ell),
                   Operation.sq(0, ell), Operation.sq(1, ell)):
            docs.append(image_barcode(K, op).to_json_dict(op.name))
            docs.append(kernel_barcode(K, op).to_json_dict(op.name))
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_barcodes_byte_identical_to_recorded_digests():
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) == len(SEEDS)
    for seed in SEEDS:
        assert seed_digest(seed) == expected[seed], f"first changed seed: {seed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps([seed_digest(s) for s in SEEDS], indent=0) + "\n")
