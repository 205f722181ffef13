"""The shape of the `pqst validate` battery, which the benchmark's gate reads
as exactly 50/50 passed checks."""

import hashlib

from pqst.golden import run_validation

# SHA-256 of the battery's labels joined by newlines, in battery order.
_LABELS_SHA256 = "5b841b5a4ff636227da8dd53f9c458d7c6d57304fee3bcc5d4aa2353289fe950"


def test_validation_battery_shape():
    results = run_validation()
    labels = [label for label, _, _ in results]
    assert len(labels) == 50
    assert len(set(labels)) == len(labels)
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == _LABELS_SHA256
    assert all(passed for _, passed, _ in results)
