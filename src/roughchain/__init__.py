"""roughchain: two-layer Markov chain pricing for rough stochastic local
volatility models, with a Monte Carlo oracle for validation."""

from .ctmc import (
    GeneratorSet,
    assemble,
    build_coupled,
    build_lambda_family,
    build_Q,
    validate_generator,
)
from .errors import (
    ConfigError,
    DomainError,
    GeneratorError,
    GridError,
    NumericalError,
    ParameterError,
    RoughChainError,
)
from .grids import Grid, build_variance_grid, build_x_grid
from .kernel import (
    KernelSpec,
    fractional_kernel,
    laplace_constants,
    laplace_quadrature,
    perturbed_kernel,
)
from .matexp import expm_action, expm_dense
from .mc import McConfig, estimate_l2_rate, mc_price, simulate_v
from .models import (
    MODEL_NAMES,
    MarketParams,
    ModelSpec,
    drift_theta,
    make_model,
)
from .pricing import (
    OptionSpec,
    PriceResult,
    ladder_violations,
    payoff_vector,
    price_bermudan,
    price_european_coupled,
    price_fast,
)

__version__ = "0.1.0"
