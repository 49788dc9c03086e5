"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips one modeled hardware knob and verifies the paper's
prediction about it:

* **ASIC vs FPGA controller** — §4.2 anticipates "an ASIC implementation
  of the CXL memory device will result in improved latency ... [but] it
  will still be higher than that of regular cross-NUMA access".
* **CXL device channel count** — §6 expects interleaving to pay off
  "especially when the CXL memory device has more memory channels".
* **Write-buffer depth** — §4.3.2 pins the nt-store sweet spot on "the
  memory buffer inside the CXL memory device".
* **Flushed-line penalty** — §4.2 attributes part of the probe latency
  to the coherence handshake on flushed lines [31].
"""

from dataclasses import replace

import pytest

from repro import build_system, combined_testbed
from repro.cpu import AccessKind, MemoryScheme
from repro.cxl.controller import CxlDeviceController
from repro.cxl.e2e_sim import CxlEndToEndSim
from repro.mem import AccessPattern
from repro.perfmodel import LatencyModel, ThroughputModel
from repro.perfmodel.contention import nt_store_sweet_spot_derate

L8, R1, CXL = (MemoryScheme.DDR5_L8, MemoryScheme.DDR5_R1,
               MemoryScheme.CXL)


def system_with_cxl(cxl_config):
    return build_system(replace(combined_testbed(),
                                cxl_devices=(cxl_config,)))


def test_ablation_asic_controller():
    """ASIC removes the FPGA penalty but CXL stays slower than NUMA."""
    base = combined_testbed()
    fpga = LatencyModel(build_system(base))
    asic = LatencyModel(system_with_cxl(base.cxl.as_asic()))
    asic_chase = asic.pointer_chase_ns(CXL)
    assert asic_chase < fpga.pointer_chase_ns(CXL)   # ASIC improves latency
    assert asic_chase > asic.pointer_chase_ns(R1)    # but protocol overhead remains


def test_ablation_cxl_channel_count():
    """More device channels lift the CXL ceiling — until PCIe binds.

    A second DDR4 channel raises load bandwidth substantially; beyond
    that the x16 Gen5 link's flit framing (64 B payload per 136 B of
    DRS wire traffic) becomes the bottleneck, so 4 channels buy nothing
    more — exactly the regime where the paper expects multi-device
    interleaving to matter instead.
    """
    base = combined_testbed()
    by_channels = {}
    for channels in (1, 2, 4):
        dram = base.cxl.dram.with_channels(channels) if channels > 1 \
            else base.cxl.dram
        model = ThroughputModel(system_with_cxl(replace(base.cxl,
                                                        dram=dram)))
        by_channels[channels] = model.bandwidth(
            CXL, AccessKind.LOAD, threads=16).gb_per_s
    assert by_channels[2] > 1.2 * by_channels[1]
    assert by_channels[4] == pytest.approx(by_channels[2], rel=0.05)


def test_ablation_write_buffer_depth():
    """A deeper device write buffer tolerates more nt-store writers."""
    base = combined_testbed().cxl
    shallow = CxlDeviceController(base)
    deep = CxlDeviceController(replace(base, write_buffer_entries=512))
    assert deep.write_buffer_derate(8) > shallow.write_buffer_derate(8)


def test_ablation_nt_buffer_sweet_spot():
    """The sweet spot tracks the buffer size (threads x block ~ buffer)."""
    blocks = [4096, 8192, 16384, 32768, 65536, 131072]

    def peak_block(buffer_bytes):
        return max(blocks,
                   key=lambda b: nt_store_sweet_spot_derate(
                       2, b, buffer_bytes) * min(b, 32768))

    assert peak_block(256 * 1024) >= peak_block(64 * 1024)


def test_ablation_flushed_line_penalty():
    """Removing the coherence handshake shrinks the probe latency gap
    between flushed loads and pointer chasing."""
    base = combined_testbed()
    with_penalty = LatencyModel(build_system(base))
    without = LatencyModel(build_system(
        replace(base, flushed_line_penalty_ns=0.0)))
    gap_with = with_penalty.flushed_load_ns(L8) \
        - with_penalty.pointer_chase_ns(L8)
    gap_without = without.flushed_load_ns(L8) - without.pointer_chase_ns(L8)
    assert gap_with > gap_without


def test_mechanism_e2e_cxl_sweep():
    """Fig 3b's shape from mechanism alone: the end-to-end DES (host
    MLP -> flits -> DDR4 banks) with no tuned efficiency constants."""
    sweep = CxlEndToEndSim().sweep([1, 4, 8, 16], lines_per_thread=800)
    assert sweep[16].gb_per_s == pytest.approx(21.3, rel=0.05)


def test_ablation_random_efficiency():
    """Random-access efficiency drives the Fig-5 block-size spread."""
    model = ThroughputModel(build_system(combined_testbed()))

    def random_loads(block_bytes):
        return model.bandwidth(L8, AccessKind.LOAD,
                               AccessPattern.RANDOM_BLOCK, threads=8,
                               block_bytes=block_bytes).gb_per_s

    assert random_loads(131072) > 1.5 * random_loads(1024)
