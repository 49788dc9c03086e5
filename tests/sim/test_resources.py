"""Server: slot grants, FIFO waiters and callback arguments."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Server


def _visit(engine, server, hold_ns, log, tag):
    """One acquire → hold → release visit in callback style."""

    def granted(tag):
        log.append((tag, "start", engine.now))
        engine.schedule(hold_ns, finished, tag)

    def finished(tag):
        log.append((tag, "end", engine.now))
        server.release()

    server.acquire(granted, tag)


class TestServerInteraction:
    def test_capacity_one_serializes(self):
        eng = Engine()
        server = Server(1)
        log = []
        for tag in ("a", "b"):
            eng.schedule(0.0, _visit, eng, server, 10.0, log, tag)
        eng.run()
        assert log == [("a", "start", 0.0), ("a", "end", 10.0),
                       ("b", "start", 10.0), ("b", "end", 20.0)]

    def test_capacity_two_overlaps(self):
        eng = Engine()
        server = Server(2)
        log = []
        for tag in range(2):
            eng.schedule(0.0, _visit, eng, server, 10.0, log, tag)
        eng.run()
        assert [t for _, kind, t in log if kind == "end"] == [10.0, 10.0]

    def test_fifo_ordering_of_waiters(self):
        eng = Engine()
        server = Server(1)
        log = []
        for tag in range(5):
            eng.schedule(0.0, _visit, eng, server, 1.0, log, tag)
        eng.run()
        assert [tag for tag, kind, _ in log if kind == "start"] == \
            [0, 1, 2, 3, 4]
        assert eng.now == 5.0


class TestResourceDirectAPI:
    def test_release_idle_server_is_error(self):
        with pytest.raises(SimulationError):
            Server(1).release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Server(0)

    def test_queue_depth_tracking(self):
        server = Server(1)
        server.acquire(lambda: None)
        server.acquire(lambda: None)
        server.acquire(lambda: None)
        assert server.busy == 1
        assert server.queue_depth == 2
        assert server.in_flight == 3
        assert server.max_queue_depth == 2
        server.release()
        assert server.in_flight == 2

    def test_acquire_forwards_args_through_wait_queue(self):
        server = Server(1)
        grants = []
        server.acquire(grants.append, "first")
        server.acquire(lambda *args: grants.append(args), "queued", 2, None)
        assert grants == ["first"]
        server.release()
        assert grants == ["first", ("queued", 2, None)]
        assert server.busy == 1 and server.queue_depth == 0
        server.release()
        assert server.busy == 0
