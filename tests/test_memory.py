"""Memory ceilings of one cold price.

The largest array of a price is its regime step exp(Lambda_l dt), a
``matexp.RegimeStack``.  Up to 2 MiB (N = M <= 64) every regime's matrix is
dense, an (M, N, N) stack; above, they are band rows, (M N, 2W + 1) with
W <= 16 on the six families, plus the dense matrices of the few regimes whose
series is long (nu dt > 1; rough-42's lowest-variance regime).  Everything else a price holds is O(M N): the regime family
as (3, M, N) diagonal planes, and the band series' chunks of at most
1.5 MiB of band arrays, the one budget of both layouts.

At N = M = 100 a cold rough-heston price peaked at 10.0 MB of traced
allocations while its 8 MB stack was dense (19 MB before the regime family
was kept as planes), and peaks at 5.30 MB on band rows (5.65 MB with a
2.25 MiB chunk budget, 6.53 MB with 3 MiB).  The first ceiling, 11 MB, is
the one the dense stack met; the second, 7 MB, lies under the 8 MB a dense
stack alone would take.
"""

import tracemalloc

from roughchain import OptionSpec, assemble, price_fast

CEILING_MB = 11.0
BAND_CEILING_MB = 7.0


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


def test_cold_band_price_peak(heston, market, kernel):
    # the same price on band rows: under the 8 MB of a dense stack alone
    option = OptionSpec("put", 10.0, 1.0)
    price_fast(option, assemble(heston, market, kernel, n=8, m=8))
    tracemalloc.start()
    try:
        result = price_fast(option, assemble(heston, market, kernel, n=100, m=100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= BAND_CEILING_MB, f"cold price peaked at {peak / 1e6:.2f} MB"
    assert result.diagnostics["regime_step"] == "band"
