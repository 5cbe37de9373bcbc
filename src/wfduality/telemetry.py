"""Integer counters of a run, kept in a context variable.

``cli run`` installs a record for the run with ``recording`` and writes it
to ``run_meta.json`` as ``telemetry``.  An engine fetches the installed
record once per call with ``current`` and adds to it; with none installed it
counts nothing.  The counters:

* ``z_rounds``: rounds of the dual-chain engine, ``bcre._paths``;
* ``z_steps``: its active paths summed over rounds, held steps included;
* ``z_held_steps``: the steps of paths that ``RateCache.rows`` leaves on
  the hold row, which change nothing;
* ``z_rows``: rate rows built, one per state the chains visit;
* ``z_row_builds``: the ``RateCache._append`` passes that built them;
* ``x_rounds``: rounds of the forward engine, ``fvwrs._paths``;
* ``x_events``: its selection and coalescence jumps.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar

_RECORD: ContextVar[Counter | None] = ContextVar("telemetry", default=None)


def current() -> Counter | None:
    """The installed record, or None."""
    return _RECORD.get()


@contextmanager
def recording():
    """Install a new record for the block, and yield it."""
    record = Counter()
    token = _RECORD.set(record)
    try:
        yield record
    finally:
        _RECORD.reset(token)
