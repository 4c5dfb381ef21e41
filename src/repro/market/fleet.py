"""A fleet of lightweight market VMs on one simulated timeline.

The marketplace only gets interesting at *fleet* scale — hundreds of
VMs with heterogeneous working sets, some over-provisioned (producers
the harvesters skim), some memory-starved (consumers leasing remote
pages), with crashes and demand surges stirring the pot.  Standing up
hundreds of full FluidMem monitor stacks would drown the signal in
setup cost, so this module models each VM at exactly the fidelity the
market sees:

* **The VM is the shared fleet VM core.**  Every :class:`MarketVM`
  is a :class:`~repro.workloads.fleet.FleetVMCore`: residency on a
  genuine kernel :class:`~repro.kernel.ActiveInactiveLists`, victims
  spilled to leased remote memory while the budget lasts, one access
  loop that classifies each fault, one counter record and crash/surge
  state machine — the same VM the ``fleet`` scenario kind runs.  This
  module adds only the market's side: the harvester-target protocol
  (the WSS estimate is the kernel's page-access statistic a real guest
  would export), the lease budget, the access draws and the latency
  model.
* **Access patterns are YCSB-shaped.**  Each VM draws page numbers
  from its own seeded :class:`~repro.workloads.ycsb.ZipfianGenerator`
  (hot head, long tail), so working sets emerge from the workload
  rather than being declared.
* **Faults are charged, not simulated page-by-page.**  A miss costs a
  modeled latency (first touch < remote lease < swap, plus any spot
  throttle on the latter two) recorded into the per-tenant QoS
  window; simulated time advances once per fleet tick.  Two same-seed
  runs replay identical access streams in identical order, fast paths
  on or off.

Chaos rides in on a standard :class:`~repro.faults.FaultPlan` under a
fleet convention: a **CRASH** window on node ``<vm-name>`` is a
fail-stop (the broker tears down the VM's leases — invariant-checked —
and the VM later reboots cold), and a **SLOW** window on node
``surge:<vm-name>`` is a demand surge (the VM's working set expands to
its whole footprint — accesses go uniform — and its access rate
doubles, so its fault rate spikes: the give-back trigger).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..errors import MarketError
from ..faults import FaultPlan
from ..obs import NULL_OBS, Observability
from ..sim import Environment, RandomStreams
from ..workloads.fleet import FleetVMCore
from ..workloads.ycsb import ZipfianGenerator
from .broker import Broker
from .harvester import HarvestConfig, Harvester
from .qos import QosManager, TenantSlo

__all__ = [
    "TenantSpec",
    "MarketVM",
    "MarketFleet",
    "FIRST_TOUCH_US",
    "REMOTE_FAULT_US",
    "SWAP_FAULT_US",
    "MIN_CONSUMER_DEMAND_PAGES",
]

#: Modeled fault-service latencies (µs).  A first touch is a zero-fill;
#: a leased remote page is a fabric RTT + copy (the paper's Table I
#: scale); a swap fault pays the block device.  The market's entire
#: value proposition is the gap between the last two.
FIRST_TOUCH_US = 4.0
REMOTE_FAULT_US = 9.0
SWAP_FAULT_US = 150.0

#: Eviction work charged when a harvest shrinks a VM (µs/page).
_EVICT_US_PER_PAGE = 0.2
#: No VM shrinks below this local budget (the balloon-floor analogue).
_MIN_CAPACITY_PAGES = 32
#: Consumers ignore shortfalls below this — a lease that small is not
#: worth a market round trip.
MIN_CONSUMER_DEMAND_PAGES = 16


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a named group of identical VMs under one SLO."""

    name: str
    vms: int
    #: ``producer`` VMs harvest surplus onto the market; ``consumer``
    #: VMs lease remote pages to cover a working set their local
    #: budget cannot hold.
    role: str
    footprint_pages: int
    capacity_pages: int
    slo: TenantSlo
    accesses_per_tick: int = 24
    #: Zipf skew of the tenant's access stream.
    theta: float = 0.99
    #: Consumer bid ceiling (milli-credits/page); producers ignore it.
    max_price: float = 100.0
    #: Per-request lease size cap for consumers.
    lease_request_cap: int = 256

    def __post_init__(self) -> None:
        if self.role not in ("producer", "consumer"):
            raise MarketError(f"unknown role {self.role!r}")
        if self.vms < 1:
            raise MarketError("a tenant needs at least one VM")
        if not _MIN_CAPACITY_PAGES <= self.capacity_pages:
            raise MarketError(
                f"capacity must be >= {_MIN_CAPACITY_PAGES} pages"
            )
        if self.footprint_pages < self.capacity_pages:
            raise MarketError("footprint must be >= capacity")


class MarketVM(FleetVMCore):
    """One market VM: the fleet VM core plus the market's side of it.

    Adds the harvester-target protocol (``capacity``,
    ``wss_estimate``, ``fault_count``, ``harvest``, ``give_back``), so
    producer VMs plug straight into :class:`~repro.market.Harvester`,
    and the consumer's lease budget.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        spec: TenantSpec,
        rng,
    ) -> None:
        super().__init__(name, spec.footprint_pages, spec.capacity_pages, rng)
        self.env = env
        self.spec = spec
        self.zipf = ZipfianGenerator(
            spec.footprint_pages, rng, theta=spec.theta
        )
        self.harvested_pages = 0

    # -- harvester-target protocol -------------------------------------------------

    def wss_estimate(self) -> int:
        return self.lists.wss_estimate()

    def fault_count(self) -> int:
        return self.stats.faults

    def harvest(self, pages: int) -> Generator:
        """Shrink the local budget; evicted pages fall to swap (only
        producers are harvested, and they hold no lease budget)."""
        taken = min(pages, self.capacity - _MIN_CAPACITY_PAGES)
        if taken <= 0:
            yield self.env.timeout(1.0)
            return 0
        self.capacity -= taken
        evicted = len(self.lists.evict_to(self.capacity))
        self.harvested_pages += taken
        yield self.env.timeout(1.0 + _EVICT_US_PER_PAGE * evicted)
        return taken

    def give_back(self, pages: int) -> int:
        returned = min(pages, self.harvested_pages)
        self.capacity += returned
        self.harvested_pages -= returned
        return returned

    # -- consumer side ---------------------------------------------------------------

    def set_remote_budget(self, pages: int) -> None:
        """Track the broker's grant total; demote any overflow (oldest
        remote pages first) back to swap."""
        self.remote_budget = pages
        while len(self.remote) > pages:
            self.remote.popitem(last=False)

    def remote_shortfall(self) -> int:
        """Pages of working set not covered by local + leased memory."""
        return max(
            0,
            self.wss_estimate() + self.spec.lease_request_cap // 8
            - self.capacity - self.remote_budget,
        )

    # -- one tick ---------------------------------------------------------------------

    def run_tick(self, qos: QosManager, throttle_us: float) -> None:
        """One tick of Zipfian (or surge) accesses; its faults' modeled
        latencies feed the QoS window."""
        # Nothing else draws from this VM's RNG during a tick, so the
        # whole tick's pages are drawn up front.
        if self.surging:
            page_nos = self.draw_uniform(2 * self.spec.accesses_per_tick)
        else:
            page_nos = self.zipf.next_many(self.spec.accesses_per_tick)
        # Indexed by the core's fault kind; the throttle delays only
        # faults that leave the VM.
        latency = (
            FIRST_TOUCH_US,
            REMOTE_FAULT_US + throttle_us,
            SWAP_FAULT_US + throttle_us,
        )
        qos.record_faults(
            self.spec.name, [latency[kind] for kind in self.access(page_nos)]
        )

    # -- lifecycle ----------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop; harvested state goes with residency and leases."""
        super().crash()
        self.capacity = self.spec.capacity_pages
        self.harvested_pages = 0

    def __repr__(self) -> str:
        state = "dead" if self.dead else "alive"
        return (
            f"<MarketVM {self.name} {state} cap={self.capacity} "
            f"resident={len(self.lists)} remote={len(self.remote)}>"
        )


class MarketFleet:
    """Drives the whole marketplace: VMs, harvesters, broker, QoS."""

    def __init__(
        self,
        env: Environment,
        specs: List[TenantSpec],
        streams: RandomStreams,
        broker: Broker,
        qos: QosManager,
        fault_plan: Optional[FaultPlan] = None,
        harvest_config: Optional[HarvestConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.env = env
        self.specs = list(specs)
        self.broker = broker
        self.qos = qos
        self.fault_plan = fault_plan
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        self.counters = self.obs.counters_for(component="fleet")
        self.vms: List[MarketVM] = []
        self.harvesters: Dict[str, Harvester] = {}
        names = set()
        for spec in self.specs:
            if spec.name in names:
                raise MarketError(f"duplicate tenant name {spec.name!r}")
            names.add(spec.name)
            self.qos.register(spec.name, spec.slo)
            # Each VM's stream is derived from its name, not draw order.
            for index in range(spec.vms):
                name = f"{spec.name}-{index:03d}"
                vm = MarketVM(env, name, spec, streams.stream(f"vm:{name}"))
                self.vms.append(vm)
                if spec.role == "producer":
                    self.harvesters[vm.name] = Harvester(
                        env, vm.name, vm, broker,
                        config=harvest_config, obs=self.obs,
                    )
        self._by_name = {vm.name: vm for vm in self.vms}
        self.lease_rejections = 0
        broker.revocation_listeners.append(self._on_revocation)

    # -- broker callbacks ------------------------------------------------------------

    def _on_revocation(self, lease, reason: str) -> None:
        vm = self._by_name.get(lease.consumer)
        if vm is not None:
            vm.set_remote_budget(self.broker.granted_to(vm.name))
            self.counters.incr("consumer_revocations")

    # -- chaos --------------------------------------------------------------------------

    def _apply_chaos(self) -> None:
        """One tick of the fleet chaos convention, in VM order.

        Each VM's core takes this tick's (crashed, surging) from the
        fault plan: CRASH windows fail-stop the VM, and the broker tears
        down its leases; ``surge:<name>`` SLOW windows toggle the demand
        surge.
        """
        plan = self.fault_plan
        if plan is None:
            return
        now = self.env.now
        for vm in self.vms:
            transitions = vm.chaos_step(
                plan.is_crashed(vm.name, now),
                plan.extra_latency_us(f"surge:{vm.name}", now) > 0,
            )
            if "crash" in transitions:
                self.broker.vm_died(vm.name)
                # Restart the harvester's fault-rate baseline at the
                # crash: the faults between its last harvest tick and
                # the crash drop out of its next rate sample.
                harvester = self.harvesters.get(vm.name)
                if harvester is not None:
                    harvester._last_faults = vm.stats.faults
                self.counters.incr("vm_crashes")
            elif "reboot" in transitions:
                self.counters.incr("vm_reboots")

    # -- market round -----------------------------------------------------------------

    def _market_step(self) -> Generator:
        """Harvest, lease, evaluate QoS — one market interval."""
        for name in sorted(self.harvesters):
            harvester = self.harvesters[name]
            if not harvester.target.dead:
                yield from harvester.tick()
        for vm in self.vms:
            if vm.dead or vm.spec.role != "consumer":
                continue
            shortfall = vm.remote_shortfall()
            if shortfall < MIN_CONSUMER_DEMAND_PAGES:
                continue
            want = min(shortfall, vm.spec.lease_request_cap)
            lease = self.broker.request(
                vm.name,
                want,
                max_price_per_page=vm.spec.max_price,
                priority=vm.spec.slo.priority,
            )
            if lease is None:
                self.lease_rejections += 1
            else:
                vm.set_remote_budget(self.broker.granted_to(vm.name))
        p99s = self.qos.evaluate()
        if self._obs_on:
            registry = self.obs.registry
            for tenant in sorted(p99s):
                registry.gauge(
                    "tenant_p99_fault_latency_us", tenant=tenant
                ).set(p99s[tenant])
            registry.gauge("fleet_alive_vms").set(
                sum(1 for vm in self.vms if not vm.dead)
            )

    # -- main loop ----------------------------------------------------------------------

    def run(
        self,
        ticks: int,
        tick_us: float = 10_000.0,
        market_every: int = 3,
        check=None,
    ) -> Generator:
        """The fleet process: access ticks with periodic market rounds.

        When a :class:`~repro.check.CorrectnessChecker` is supplied,
        every market round ends with a steady-state audit of the
        broker's books against the shadow ledger.
        """
        if ticks < 1:
            raise MarketError("need at least one tick")
        check_on = check is not None and check.enabled
        for tick in range(ticks):
            self._apply_chaos()
            for vm in self.vms:
                if vm.dead:
                    continue
                vm.run_tick(self.qos, self.qos.throttle_delay_us(vm.spec.name))
            if (tick + 1) % market_every == 0:
                yield from self._market_step()
                if check_on:
                    check.check_steady_state(broker=self.broker)
            yield self.env.timeout(tick_us)
        # Drain: producers leave gracefully, consumers release leases.
        for name in sorted(self.harvesters):
            self.harvesters[name].shutdown()
        for vm in self.vms:
            if not vm.dead and vm.spec.role == "consumer":
                for lease in self.broker.leases_of(vm.name):
                    self.broker.release(lease)
                vm.set_remote_budget(0)
        if check_on:
            check.check_steady_state(broker=self.broker)
            for vm in self.vms:
                vm.audit()

    # -- reporting ----------------------------------------------------------------------

    def tenant_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant aggregates for the bench table, in spec order."""
        qos = self.qos
        summary: Dict[str, Dict[str, object]] = {}
        for spec in self.specs:
            tenant_vms = [vm for vm in self.vms if vm.spec is spec]
            summary[spec.name] = {
                "role": spec.role,
                "vms": len(tenant_vms),
                "priority": spec.slo.priority,
                "slo_us": spec.slo.p99_fault_latency_us,
                "p99_us": qos.last_p99.get(spec.name, 0.0),
                "violations": qos.violation_counts.get(spec.name, 0),
                "faults": sum(vm.stats.faults for vm in tenant_vms),
                "hits": sum(vm.stats.hits for vm in tenant_vms),
                "remote_hits": sum(vm.stats.remote_hits for vm in tenant_vms),
                "swap_faults": sum(vm.stats.swap_faults for vm in tenant_vms),
                "deaths": sum(vm.stats.deaths for vm in tenant_vms),
            }
        return summary

    def __repr__(self) -> str:
        return (
            f"<MarketFleet vms={len(self.vms)} "
            f"producers={len(self.harvesters)} "
            f"tenants={len(self.specs)}>"
        )
