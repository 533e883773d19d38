"""Simulated Amazon Elastic Compute Cloud (EC2).

The paper runs its loader and query-processor modules on EC2 instances
of two types (large and extra-large, §8.1) and bills them by the hour
(``VM$h`` in §7.2).  An :class:`Instance` here is a pool of cores on the
discrete-event simulator: submitting ``run(ecu_seconds)`` occupies one
core for ``ecu_seconds / ecu_per_core`` simulated seconds.  Because an
``xl`` instance has twice the cores of an ``l`` at twice the hourly
price, parallel work finishes in about half the time for about the same
cost — the effect behind Figures 9 and 11.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional

from repro.config import InstanceType, instance_type
from repro.errors import InstanceStateError, NoSuchInstance, SimulationError
from repro.sim import Environment, Meter, Resource

SERVICE = "ec2"


class Instance:
    """A running virtual machine: a core pool plus billing timestamps."""

    def __init__(self, env: Environment, instance_id: str,
                 itype: InstanceType) -> None:
        self.env = env
        self.instance_id = instance_id
        self.itype = itype
        self.launched_at = env.now
        self.stopped_at: Optional[float] = None
        #: True when the instance was killed by EC2.crash rather than
        #: stopped cleanly.
        self.crashed = False
        self._cores = Resource(env, itype.cores)
        self.busy_ecu_seconds = 0.0

    # -- state ------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True until the instance is stopped."""
        return self.stopped_at is None

    @property
    def uptime_seconds(self) -> float:
        """Seconds between launch and stop (or now if still running)."""
        end = self.stopped_at if self.stopped_at is not None else self.env.now
        return end - self.launched_at

    @property
    def uptime_hours(self) -> float:
        """Fractional uptime hours — what the paper's §7 formulas multiply
        by ``VM$h`` (they use measured task time, not ceiled billing)."""
        return self.uptime_seconds / 3600.0

    @property
    def billable_hours(self) -> int:
        """Ceiled instance-hours, how AWS actually invoiced in 2012."""
        hours = self.uptime_seconds / 3600.0
        whole = int(hours)
        return whole if hours == whole else whole + 1

    # -- compute ----------------------------------------------------------

    def run(self, ecu_seconds: float) -> Generator[Any, Any, None]:
        """Occupy one core for the time needed to do ``ecu_seconds`` work.

        Multiple concurrent ``run`` calls use the instance's cores in
        parallel — this is the intra-machine parallelism of §3
        ("multi-threading our code").
        """
        if not self.running:
            raise InstanceStateError(
                "instance {} is stopped".format(self.instance_id))
        if ecu_seconds < 0:
            raise SimulationError("negative work amount")
        yield self._cores.request()
        try:
            yield self.env.timeout(ecu_seconds / self.itype.ecu_per_core)
            self.busy_ecu_seconds += ecu_seconds
        finally:
            self._cores.release()

    def __repr__(self) -> str:
        return "<Instance {} type={} {}>".format(
            self.instance_id, self.itype.name,
            "running" if self.running else "stopped")


class EC2:
    """The instance manager: launch, stop, enumerate, bill."""

    def __init__(self, env: Environment, meter: Meter) -> None:
        self._env = env
        self._meter = meter
        self._instances: Dict[str, Instance] = {}
        self._ids = itertools.count(1)

    def launch(self, type_name: str) -> Instance:
        """Launch one instance of the named type ("l" or "xl")."""
        itype = instance_type(type_name)
        instance_id = "i-{:08d}".format(next(self._ids))
        instance = Instance(self._env, instance_id, itype)
        self._instances[instance_id] = instance
        self._meter.record(self._env.now, SERVICE, "launch")
        return instance

    def launch_fleet(self, type_name: str, count: int) -> List[Instance]:
        """Launch ``count`` identical instances."""
        return [self.launch(type_name) for _ in range(count)]

    def stop(self, instance: Instance) -> None:
        """Stop an instance, fixing its billing end time."""
        if instance.instance_id not in self._instances:
            raise NoSuchInstance(instance.instance_id)
        if not instance.running:
            raise InstanceStateError(
                "instance {} already stopped".format(instance.instance_id))
        instance.stopped_at = self._env.now
        self._meter.record(self._env.now, SERVICE, "stop")

    def crash(self, instance: Instance) -> None:
        """Kill an instance abruptly (chaos injection).

        Billing still runs to the crash instant — a machine that died
        mid-task was rented until it died.  The caller is responsible
        for interrupting any simulated process that was "running on"
        the instance (the kernel has no notion of placement); the
        warehouse's chaos monkey does both in one step.
        """
        if instance.instance_id not in self._instances:
            raise NoSuchInstance(instance.instance_id)
        if not instance.running:
            raise InstanceStateError(
                "instance {} already stopped".format(instance.instance_id))
        instance.stopped_at = self._env.now
        instance.crashed = True
        self._meter.record(self._env.now, SERVICE, "crash")

    def stop_all(self) -> None:
        """Stop every running instance."""
        for instance in self._instances.values():
            if instance.running:
                self.stop(instance)

    def get(self, instance_id: str) -> Instance:
        """Look an instance up by id."""
        try:
            return self._instances[instance_id]
        except KeyError:
            raise NoSuchInstance(instance_id) from None

    def instances(self, type_name: Optional[str] = None) -> List[Instance]:
        """All instances ever launched, optionally filtered by type."""
        out = list(self._instances.values())
        if type_name is not None:
            out = [i for i in out if i.itype.name == type_name]
        return out
