"""Committed quality values for the suite-design stage cases.

Each stage test that runs a suite design keeps that design's metrics in
a dict in its own module.  :func:`assert_quality` holds a fresh run to
them with the ``TOLERANCES`` of :mod:`repro.obs.runs`, the bounds
``benchmarks/check_regression.py`` and ``repro runs diff`` apply too.
"""

from repro.obs.runs import exceeds_tolerance


def assert_quality(fresh: dict, committed: dict) -> None:
    """Fail unless ``fresh`` has exactly the committed metrics, each in band.

    The message prints the fresh dict, so an intentional re-baseline is
    pasting it over the committed one.
    """
    drifted = sorted(
        name for name, value in committed.items()
        if name in fresh and exceeds_tolerance(name, fresh[name], value)
    )
    assert fresh.keys() == committed.keys() and not drifted, (
        f"quality drifted in {drifted} or the metric set changed; "
        f"fresh values: {fresh!r}"
    )
