"""System assembly: topology, backends, schemes, SNC, thread pinning."""

import pytest

from repro import (
    build_system,
    combined_testbed,
    dual_socket_testbed,
    single_socket_testbed,
)
from repro.cpu import MemoryScheme
from repro.errors import ConfigError
from repro.topology import Membind, MemoryKind


class TestSingleSocketSystem:
    def setup_method(self):
        self.system = build_system(single_socket_testbed())

    def test_nodes(self):
        assert len(self.system.topology.nodes) == 2    # local + CXL
        assert self.system.topology.node(0).kind is MemoryKind.DRAM_LOCAL
        assert self.system.topology.node(1).kind is MemoryKind.CXL

    def test_cxl_node_is_cpuless(self):
        assert self.system.topology.node(self.system.cxl_node_id).is_cpuless

    def test_schemes_exclude_remote(self):
        schemes = self.system.available_schemes()
        assert MemoryScheme.DDR5_L8 in schemes
        assert MemoryScheme.CXL in schemes
        assert MemoryScheme.DDR5_R1 not in schemes

    def test_r1_request_raises(self):
        with pytest.raises(ConfigError):
            self.system.scheme_backend(MemoryScheme.DDR5_R1)

    def test_allocator_covers_cxl_capacity(self):
        node = self.system.cxl_node_id
        from repro import units
        assert self.system.allocator.capacity_pages(node) == \
            units.gib(16) // units.kib(4)


class TestDualSocketSystem:
    def setup_method(self):
        self.system = build_system(dual_socket_testbed())

    def test_remote_node_exists(self):
        assert self.system.has_remote_socket
        assert self.system.topology.node(1).kind is MemoryKind.DRAM_REMOTE

    def test_no_cxl(self):
        assert not self.system.has_cxl
        with pytest.raises(ConfigError):
            self.system.cxl_backend()

    def test_r1_backend_has_one_channel(self):
        backend = self.system.scheme_backend(MemoryScheme.DDR5_R1)
        assert backend.channel_count == 1
        assert backend.label == "DDR5-R1"

    def test_remote_node_backend_has_all_channels(self):
        backend = self.system.backend_for_node(1)
        assert backend.channel_count == 8

    def test_remote_read_slower_than_local(self):
        local = self.system.scheme_backend(MemoryScheme.DDR5_L8)
        remote = self.system.scheme_backend(MemoryScheme.DDR5_R1)
        assert remote.idle_read_ns() > local.idle_read_ns()


class TestCombinedSystem:
    def setup_method(self):
        self.system = build_system(combined_testbed())

    def test_all_three_schemes(self):
        assert self.system.available_schemes() == [
            MemoryScheme.DDR5_L8, MemoryScheme.DDR5_R1, MemoryScheme.CXL]

    def test_scheme_nodes(self):
        assert self.system.scheme_node(MemoryScheme.DDR5_L8) == 0
        assert self.system.scheme_node(MemoryScheme.DDR5_R1) == 1
        assert self.system.scheme_node(MemoryScheme.CXL) == 2

    def test_idle_read_ordering(self):
        """§4.2: L8 < R1 < CXL."""
        reads = [self.system.scheme_backend(s).idle_read_ns()
                 for s in (MemoryScheme.DDR5_L8, MemoryScheme.DDR5_R1,
                           MemoryScheme.CXL)]
        assert reads[0] < reads[1] < reads[2]

    def test_allocation_across_nodes(self):
        from repro import units
        allocation = self.system.allocator.allocate(
            units.mib(1), Membind(self.system.cxl_node_id))
        assert allocation.node_histogram() == {2: 256}


class TestSncMode:
    def test_snc_slices_channels(self):
        system = build_system(single_socket_testbed())
        snc = system.snc_system()
        assert snc.socket.config.dram.channels == 2
        assert snc.socket.config.cores == 8

    def test_snc_backend_label(self):
        snc = build_system(single_socket_testbed(), ) .snc_system()
        assert snc.socket.local_backend().label == "SNC-DDR5-L2"

    def test_snc_keeps_cxl_device(self):
        snc = build_system(single_socket_testbed()).snc_system()
        assert snc.has_cxl

    def test_snc_mesh_is_shorter(self):
        system = build_system(single_socket_testbed())
        snc = system.snc_system()
        assert snc.socket.mesh.traverse_ns() < system.socket.mesh.traverse_ns()
