"""Count the events each ``Engine.run`` executes, for pins and oracles."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.sim import Engine


@contextmanager
def engine_events():
    """The :attr:`Engine.events_processed` of every ``Engine.run`` that
    returns inside the block, in run order."""
    counts: list[int] = []
    run = Engine.run

    def counted(engine, *args, **kwargs):
        run(engine, *args, **kwargs)
        counts.append(engine.events_processed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "run", counted)
        yield counts
