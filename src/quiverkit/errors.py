"""Exception types shared across the package."""

from __future__ import annotations


class QuiverkitError(Exception):
    """Base class for errors raised by this package."""


class SizeCapError(QuiverkitError):
    """An instance exceeds the configured size cap for an operation."""
