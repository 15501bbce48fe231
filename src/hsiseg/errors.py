"""Exception taxonomy shared across the package, and the one config-knob check.

The CLI maps these onto exit codes: file/format problems exit 2,
numerical failures exit 3, every other contract violation exits 1.
"""

from dataclasses import fields
from numbers import Integral, Real


class HsisegError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(HsisegError):
    """An argument value violates an operation's contract."""


class ConfigError(ParameterError):
    """A configuration object violates its invariants."""


class ShapeError(HsisegError):
    """Array dimensions disagree with what an operation requires."""


class StateError(HsisegError):
    """An operation was invoked before required state exists."""


class DegenerateDataError(HsisegError):
    """Input data is too degenerate for the operation to be defined."""


class InsufficientDataError(DegenerateDataError):
    """Fewer samples than the operation needs."""


class DataError(HsisegError):
    """A file could not be read or written."""


class FormatError(DataError):
    """A header or payload is missing, garbled, or unsupported."""


class SizeMismatchError(DataError):
    """A payload's byte count disagrees with its header."""


class NumericalError(HsisegError):
    """A numerical procedure failed despite valid inputs."""


def check_knobs(owner, values: dict, rules: dict) -> None:
    """Raise :class:`ConfigError` naming the first knob of ``rules`` (name ->
    (ok, what ok asks)) whose value in ``values`` fails ``ok`` or its type in
    dataclass ``owner``: an int is never a bool or a float, a float is any int
    or float but a bool, and numpy scalars count."""
    declared = {f.name: f.type for f in fields(owner)}
    for name, (ok, rule) in rules.items():
        value, kind = values[name], {"int": Integral, "float": Real, "str": str}[declared[name]]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"config key {name!r} must be of type {declared[name]}, "
                              f"got {value!r}")
        if not ok(value):
            raise ConfigError(f"config key {name!r}: {rule}, got {value!r}")
