from output_sweep import sweep_digest

# Computed before the blocked standard_form and the float64 product tier;
# a change that keeps every output byte-for-byte keeps this digest.
DIGEST = "8ee1608d1976c8f1c4d1441c49d261d55fa3a41c60468854171cd415d311283e"


def test_output_sweep_digest():
    assert sweep_digest() == DIGEST
