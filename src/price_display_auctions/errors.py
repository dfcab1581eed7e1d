"""Exception types shared across the package."""


class AuctionError(ValueError):
    """Base class for all domain errors raised by this package."""


class QualityDomainError(AuctionError):
    """A quality function was evaluated outside its domain (p < p_min)."""


class GuardExceededError(AuctionError):
    """A brute-force routine was asked for a search space beyond its guard."""


class InferenceError(AuctionError):
    """Type inference failed (e.g. zero diagonal derivative at p*)."""


class ConstraintViolationError(AuctionError):
    """Scenario parameters violate the setting's constraints."""

    def __init__(self, constraint: str):
        super().__init__(f"parameter constraint violated: {constraint}")
        self.constraint = constraint


class InstanceFormatError(AuctionError):
    """An instance file failed validation; carries the offending field path.

    A model constructor raises it with the path of its own field (say
    ``values``), which the loader prefixes with the object's path.
    """

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path
        self.message = message
