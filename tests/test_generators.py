"""The random TP/TN generators against the hand loops they replaced."""

import pytest

from generators_reference import eb_product
from tpds import generators, random_tn, random_tp


@pytest.mark.parametrize("generate", [random_tp, random_tn], ids=["tp", "tn"])
def test_random_tp_and_tn_are_the_reference_products_byte_for_byte(monkeypatch, generate):
    got = {(n, seed): generate(n, rng=seed) for n in range(2, 11) for seed in range(300)}
    monkeypatch.setattr(generators, "_eb_product", eb_product)
    for (n, seed), A in got.items():
        expected = generate(n, rng=seed)
        assert A.dtype == expected.dtype and A.tobytes() == expected.tobytes(), (n, seed)

