"""Deterministic fault injection for the serving substrate.

The chaos harness behind every recovery path: a seeded
:class:`~repro.faults.plan.FaultPlan` (ambient via ``REPRO_FAULT_PLAN``,
or installed programmatically) schedules worker kills, publisher crashes,
store corruption, transient decode exceptions and artificial latency at
named **trip sites** planted in the production code —
``worker.task`` (:mod:`repro.parallel.pool`),
``store.publish.pre_rename`` / ``store.publish``
(:mod:`repro.designs.store`) and ``serve.decode``
(:mod:`repro.serve.coalescer`).  Identical plans replay identical fault
sequences, so CI asserts that every *recovered* result is bit-identical
to a fault-free run (see ``docs/robustness.md`` and
``tests/test_faults.py``).
"""

from repro.faults.plan import (
    ACTIONS,
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultRule,
    InjectedFault,
    ambient_plan,
    bitflip_file,
    reset_ambient_plan,
    set_ambient_plan,
    trip,
    truncate_file,
)

__all__ = [
    "ACTIONS",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "ambient_plan",
    "set_ambient_plan",
    "reset_ambient_plan",
    "trip",
    "bitflip_file",
    "truncate_file",
]
