"""Exception hierarchy for the pricing engine."""


class RoughChainError(Exception):
    """Base class for all engine errors."""


class DomainError(RoughChainError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(RoughChainError, ValueError):
    """A model/market/kernel parameter violates its admissibility condition."""


def coerce_floats(spec, *names):
    """Set each named field of the frozen dataclass ``spec`` to float(field).

    Integer inputs would otherwise type whole arrays as int; anything float()
    rejects raises ParameterError("{name} must be a number").
    """
    for name in names:
        try:
            object.__setattr__(spec, name, float(getattr(spec, name)))
        except (TypeError, ValueError):
            raise ParameterError(f"{name} must be a number") from None


class GridError(RoughChainError, ValueError):
    """A state grid cannot be built or fails its spacing invariants."""


class GeneratorError(RoughChainError, ValueError):
    """A rate matrix could not be constructed as a valid generator."""


class NumericalError(RoughChainError, RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class ConfigError(RoughChainError, ValueError):
    """A run configuration is malformed or inconsistent."""
