"""Test-support utilities shipped with the library.

:mod:`repro.testing.faults` is the fault-injection harness for the
transactional mutation layer (:mod:`repro.db.journal`): it arms a
design so that the N-th journaled mutation raises, then verifies the
journal restored the pre-call state byte-for-byte.  It lives in the
package (not under ``tests/``) so downstream users can run the same
crash-consistency sweeps against their own flows.
"""

from repro.testing.faults import (
    FaultInjector,
    FaultSweepReport,
    InjectedFault,
    ShardFaultSpec,
    WorkerFault,
    count_journaled_mutations,
    design_state,
    design_state_digest,
    fault_sweep,
    worker_fault_from_env,
)

__all__ = [
    "FaultInjector",
    "FaultSweepReport",
    "InjectedFault",
    "ShardFaultSpec",
    "WorkerFault",
    "count_journaled_mutations",
    "design_state",
    "design_state_digest",
    "fault_sweep",
    "worker_fault_from_env",
]
