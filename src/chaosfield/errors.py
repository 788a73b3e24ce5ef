"""Shared exception types."""


class ChaosFieldError(Exception):
    """Base class for library errors."""


class ConfigurationError(ChaosFieldError):
    """Mismatched truncations, invalid configuration values, etc."""


class DomainError(ChaosFieldError):
    """Argument outside its mathematical domain (t outside [0,T], H outside (1/2,1), ...)."""
