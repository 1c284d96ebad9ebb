"""Memory ceiling of one cold price.

A cold price at N = M = 100 needs one dense (M, N, N) array, the regime
stack exp(Lambda_l dt) of 8 MB that the slice loop reads.  Everything else
it holds is O(M N): the regime family as (3, M, N) diagonal planes, and the
band series' chunks.  The ceiling, 11 MB, is about 1.4 times that stack
(before the regime family was kept as planes, the peak was 19 MB).
"""

import tracemalloc

from roughchain import OptionSpec, assemble, price_fast

CEILING_MB = 11.0


def test_cold_price_peak(heston, market, kernel):
    option = OptionSpec("put", 10.0, 1.0)
    price_fast(option, assemble(heston, market, kernel, n=8, m=8))  # one-time set-up off the count
    tracemalloc.start()
    try:
        gens = assemble(heston, market, kernel, n=100, m=100)
        price_fast(option, gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= CEILING_MB, f"cold price peaked at {peak / 1e6:.2f} MB"
    assert gens.lambdas.shape == (3, 100, 100)
