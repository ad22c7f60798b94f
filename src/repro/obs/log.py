"""Standard-library logging under the ``repro.*`` namespace, bridged to
the tracer.

Every module logs through :func:`get_logger`; all loggers hang off the
``repro`` root logger so one switch (:func:`configure_logging`) controls
the whole library; ``configure_logging(logging.DEBUG)`` also prints the
global placer's per-iteration lines.  A :class:`TracerEventHandler` on
the root forwards each emitted record to the *current* tracer as a
``log`` event, so a traced run captures exactly what a verbose run
would have printed — same switch, two sinks.
"""

from __future__ import annotations

import logging

from repro.obs.tracer import get_tracer

ROOT_LOGGER_NAME = "repro"


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro.`` namespace (idempotent prefixing)."""
    if name != ROOT_LOGGER_NAME and not name.startswith(ROOT_LOGGER_NAME + "."):
        name = f"{ROOT_LOGGER_NAME}.{name}"
    return logging.getLogger(name)


class TracerEventHandler(logging.Handler):
    """Mirrors log records into the current tracer as ``log`` events."""

    def emit(self, record: logging.LogRecord) -> None:
        tracer = get_tracer()
        if not tracer.enabled:
            return
        try:
            tracer.event(
                "log",
                level=record.levelname,
                logger=record.name,
                message=record.getMessage(),
            )
        except Exception:
            self.handleError(record)


def configure_logging(
    level: int = logging.INFO, *, stream=None, force: bool = False
) -> logging.Logger:
    """Set up the ``repro`` root logger: stderr output + tracer bridge.

    Idempotent: repeated calls only adjust the level unless ``force``
    re-installs the handlers (used by tests).  Returns the root logger.
    """
    root = logging.getLogger(ROOT_LOGGER_NAME)
    if force:
        for handler in list(root.handlers):
            root.removeHandler(handler)
    if not root.handlers:
        console = logging.StreamHandler(stream)
        console.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(console)
        root.addHandler(TracerEventHandler())
        root.propagate = False
    root.setLevel(level)
    return root
