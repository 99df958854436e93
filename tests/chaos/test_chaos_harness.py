"""Chaos-harness tests: the engine's resilience contract under seeded
fault schedules, plus fault-free parity of the FaultyDisk wrapper.

These are the CI chaos job's payload (run with ``REPRO_CHECKS=1`` on
both kernel backends): every schedule must end in verified-correct rows
or a typed failure — :mod:`tools.chaos` raises ``ChaosViolation``
otherwise — and must replay exactly from its seed.
"""

import pytest

from repro import kernels
from repro.storage import FaultPlan, FaultyDisk, SimulatedDisk
from sweep_contract import BACKENDS, sweep_contract
from tools.chaos import QUERY, build_world


def q6_scan(db, design, access_order):
    """The harness query's two scan shapes, with page accesses recorded."""
    original_read = SimulatedDisk.read

    def recording_read(self, page_id, **kwargs):
        access_order.append(page_id)
        return original_read(self, page_id, **kwargs)

    SimulatedDisk.read = recording_read
    try:
        fts = list(design.heap.scan())
        tetris = list(
            design.ub.tetris_scan(QUERY["restrictions"], QUERY["sort_attr"])
        )
    finally:
        SimulatedDisk.read = original_read
    return fts, [row for _, row in tetris]


# ----------------------------------------------------------------------
# satellite: fault-free parity of the wrapper
# ----------------------------------------------------------------------
class TestFaultFreeParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_plan_is_observationally_identical(self, backend):
        """FaultyDisk(empty plan) == SimulatedDisk: bit-identical tuple
        streams, IOStats and page-access order on Q6-style scans."""
        with kernels.use_backend(backend):
            bare_order: list[int] = []
            bare_db, bare_design, data = build_world(rows=800)
            bare_rows = q6_scan(bare_db, bare_design, bare_order)

            faulty_order: list[int] = []
            faulty_db, faulty_design, _ = build_world(FaultPlan(), rows=800)
            assert isinstance(faulty_db.disk, FaultyDisk)
            faulty_db.arm_faults()  # even armed, an empty plan injects nothing
            faulty_rows = q6_scan(faulty_db, faulty_design, faulty_order)
            faulty_db.disarm_faults()

        assert faulty_rows == bare_rows  # FTS stream and Tetris stream
        assert faulty_order == bare_order  # page-access order
        assert faulty_db.disk.stats == bare_db.disk.stats  # full IOStats
        assert faulty_db.disk.stats.faults.total_injected == 0
        assert faulty_db.disk.fault_log == []

    def test_parity_across_backends(self):
        """Both kernel backends see the same streams from a faulty world."""
        if len(BACKENDS) < 2:
            pytest.skip("only one kernel backend available")
        streams = {}
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                db, design, _ = build_world(FaultPlan(), rows=800)
                order: list[int] = []
                streams[backend] = (q6_scan(db, design, order), order)
        first, *rest = streams.values()
        for other in rest:
            assert other == first


# ----------------------------------------------------------------------
# tentpole: seeded chaos sweeps on the four-instance world
# ----------------------------------------------------------------------
class TestChaosSweep(sweep_contract("read")):
    """The read sweep: nothing beyond the shared contract."""


class TestPrefetchSweep(sweep_contract("prefetch")):
    """The prefetch identity sweep: each schedule yields a (demand,
    prefetch) outcome pair, and reaching it means the seven identity
    checks inside the run all passed."""
