from output_sweep import geometry_digest, sweep_digest

# Computed before the blocked standard_form and the float64 product tier;
# a change that keeps every output byte-for-byte keeps this digest.
DIGEST = "8ee1608d1976c8f1c4d1441c49d261d55fa3a41c60468854171cd415d311283e"

# Computed before the block geometry moved into BlockLayout.group; kept
# since its writers moved into bench.random_code and tests/oracles.py.
GEOMETRY_DIGEST = "ec1e3354b11d17fbc83c71811334ccd23263b526c90748029e3b063eb97bd66a"


def test_output_sweep_digest():
    assert sweep_digest() == DIGEST


def test_geometry_digest():
    assert geometry_digest() == GEOMETRY_DIGEST
