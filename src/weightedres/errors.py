"""Exception hierarchy and resource limits.

Domain errors (bad mathematical input: mismatched ambients, inadmissible
centers, non-integral weight tuples, ...) derive from DomainError and map to
CLI exit code 1.  Parse and resource errors map to exit code 2.

The degree cap guards against runaway polynomial expansions: any product or
power whose total degree would exceed the cap raises ResourceLimitError.
The default of 64 is generous for everything this library computes.  The
cap is a context variable, so it is per thread and per asyncio task, and
`using_degree_cap` sets it for one call only.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_DEGREE_CAP = 64

_degree_cap: ContextVar[int] = ContextVar("degree_cap", default=DEFAULT_DEGREE_CAP)


class WeightedResError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class DomainError(WeightedResError):
    """Mathematically invalid input (exit code 1 in the CLI)."""

    code = "domain-error"


class AmbientMismatchError(DomainError):
    code = "ambient-mismatch"


class InvalidMultiOrderError(DomainError):
    code = "invalid-multiorder"


class AdmissibilityError(DomainError):
    code = "inadmissible"


class NonIntegralCenterError(DomainError):
    code = "non-integral"


class NoContactError(DomainError):
    """Unit ideal: no maximal contact exists."""

    code = "no-contact"


class ContactAlignmentError(DomainError):
    """A maximal contact exists but cannot be aligned to a coordinate by a
    polynomial triangular substitution (e.g. it is only defined after
    localization)."""

    code = "contact-alignment"


class NotATubeError(DomainError):
    code = "not-a-tube"


class UnrepresentableError(DomainError):
    """Input falls outside the representable desk-scale class."""

    code = "unrepresentable"


class CertificateError(DomainError):
    """Constructive certification failed; the center was not canonical."""

    code = "fails-to-certify"


class ParseError(WeightedResError):
    code = "parse-error"


class ResourceLimitError(WeightedResError):
    code = "resource-cap"


def degree_cap() -> int:
    return _degree_cap.get()


@contextmanager
def using_degree_cap(cap: int):
    """Run the body under `cap`; the previous cap is back on exit."""
    if cap < 1:
        raise ValueError("degree cap must be positive")
    token = _degree_cap.set(cap)
    try:
        yield
    finally:
        _degree_cap.reset(token)


def degree_cap_from_env() -> int:
    """Read the default degree cap from WEIGHTEDRES_DEGREE_CAP, if set; a
    value that is not a positive integer is a ParseError."""
    raw = os.environ.get("WEIGHTEDRES_DEGREE_CAP", str(DEFAULT_DEGREE_CAP))
    if not (raw.isascii() and raw.isdecimal()) or int(raw) < 1:
        raise ParseError(f"WEIGHTEDRES_DEGREE_CAP must be a positive integer, got {raw!r}")
    return int(raw)
