"""Exception hierarchy shared by all :mod:`repro` subsystems."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class XPathSyntaxError(ReproError):
    """Raised when an XPath expression cannot be parsed.

    Carries the offending source text and the position of the first
    character that could not be consumed.
    """

    def __init__(self, source, position, reason):
        self.source = source
        self.position = position
        self.reason = reason
        super().__init__(
            "invalid XPath expression %r at position %d: %s"
            % (source, position, reason)
        )


class DTDSyntaxError(ReproError):
    """Raised when a DTD document cannot be parsed."""

    def __init__(self, reason, line=None):
        self.reason = reason
        self.line = line
        location = "" if line is None else " (line %d)" % line
        super().__init__("invalid DTD%s: %s" % (location, reason))


class XMLSyntaxError(ReproError):
    """Raised when an XML document cannot be parsed."""


class RoutingError(ReproError):
    """Raised on protocol violations inside a broker or the overlay.

    Examples: publishing without a prior advertisement when
    advertisement-based routing is enabled, or delivering a message to an
    unknown destination.
    """


class ProtocolError(RoutingError):
    """Raised when a broker receives a message it cannot interpret —
    an unknown message kind, or a payload that violates the dissemination
    protocol.  Subclasses :class:`RoutingError` so existing handlers of
    broker-side failures keep working."""


class ConfigError(ReproError):
    """Raised when a configuration value is unusable — an unknown
    matching engine in a snapshot and similar.  Deliberately *not* a
    subclass of :class:`ValueError`/:class:`KeyError`: persistence
    wraps those in :class:`~repro.broker.persistence.PersistenceError`,
    and a configuration problem must surface under its own name (with
    the offending field) instead of as "malformed snapshot".
    """


class TopologyError(ReproError):
    """Raised when an overlay topology is malformed (cycles, unknown
    brokers, duplicate links)."""


class WorkloadError(ReproError):
    """Raised when a workload generator is configured inconsistently."""
