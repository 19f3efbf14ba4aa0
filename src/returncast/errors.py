"""Exception types shared across the package, and the config value ranges
that more than one section uses."""


class ValidationError(ValueError):
    """Input data or arguments violate a documented contract."""


class MissingGaError(ValidationError):
    """A required general-availability month is absent from the calendar."""


class NumericError(RuntimeError):
    """A computation cannot produce a meaningful number (degenerate input)."""


# Field metadata `accepts` on a config section: (test, message) for a value
# `returncast.config.load_config` takes; outside it the loader raises a
# `ValidationError` that names the key, where the value would otherwise crash
# a fit, train nothing or refuse a cycle with a message that names no key. A
# range one section alone uses is written beside that section.
AT_LEAST_ONE = {"accepts": (lambda value: value >= 1, "must be >= 1")}
NON_NEGATIVE = {"accepts": (lambda value: value >= 0, "must be >= 0")}
