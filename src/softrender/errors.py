"""Exception types shared across the engine."""


class SceneError(Exception):
    """Base class for scene loading and validation failures."""


class ParseError(SceneError):
    """Malformed source file. Carries the byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedFeatureError(SceneError):
    """Input uses a feature outside the supported subset."""

    def __init__(self, feature, detail=""):
        message = f"unsupported feature: {feature}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.feature = feature


class ValidationError(SceneError):
    """Structurally invalid input (dangling index, cycle, duplicate name)."""


class ConfigurationError(Exception):
    """Render request cannot be satisfied (e.g. scene has no camera)."""


class RegionError(Exception):
    """Shared-memory region creation or attachment failed."""


class IncompatibleRegionError(RegionError):
    """Region exists but magic/version do not match."""


class ContentionError(RegionError):
    """Region holds no stable snapshot: a writer died mid-write."""
