"""Shared exception types."""


class GuardError(ValueError):
    """A numerical guard tripped (dimension limit, degenerate denominator,
    non-Hermitian input where a Hermitian operator is required)."""


class LayoutError(ValueError):
    """A plaquette layout or run configuration is malformed or names
    something that does not exist (an unknown id or gauge sector)."""
