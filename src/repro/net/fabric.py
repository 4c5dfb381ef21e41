"""The cluster fabric: hosts, links, and RPC round trips.

A :class:`Fabric` holds named :class:`Host` objects and the
:class:`~repro.net.transports.TransportSpec` connecting each pair.  Two
ways to use it:

* ``fabric.sample_rtt(...)`` — pure latency sampling for callers that
  account time themselves (the fast path).
* ``yield from fabric.rpc(...)`` — a simulation sub-process that holds
  the client NIC for the serialization interval, so concurrent RPCs from
  the same host queue realistically.
* ``fabric.inline_rpc(...)`` — the completion time of an RPC started
  now, computed without a process when that provably equals running
  :meth:`Fabric.rpc` in a freshly spawned one (DESIGN.md §17).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from ..errors import HostUnreachableError, NetworkError
from ..sim import CounterSet, Environment, RandomStreams, Resource
from ..sim import core as _simcore
from .transports import TransportSpec

__all__ = ["Host", "Fabric"]


class Host:
    """A server on the fabric with a single NIC queue."""

    def __init__(self, env: Environment, name: str, nic_queues: int = 1) -> None:
        self.env = env
        self.name = name
        #: Concurrent in-flight sends allowed (QPs / channels).
        self.nic = Resource(env, capacity=nic_queues)
        #: End of the serialization interval of the last inline RPC
        #: (:meth:`Fabric.inline_rpc`).  Until then the NIC counts as
        #: held, and :meth:`Fabric.rpc` queues behind it.
        self.nic_busy_until = 0.0

    def __repr__(self) -> str:
        return f"<Host {self.name!r}>"


class Fabric:
    """Hosts plus pairwise transports."""

    def __init__(self, env: Environment, streams: RandomStreams) -> None:
        self.env = env
        self._rng = streams.stream("net.fabric")
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[Tuple[str, str], TransportSpec] = {}
        #: ``inline_rpcs`` plus one ``refused_*`` counter per guard of
        #: :meth:`inline_rpc`.  Diagnostic only: never exported to a
        #: report, so the path taken cannot move report bytes.
        self.counters = CounterSet()

    # -- topology ----------------------------------------------------------

    def add_host(self, name: str, nic_queues: int = 1) -> Host:
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(self.env, name, nic_queues=nic_queues)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise HostUnreachableError(f"unknown host {name!r}") from None

    def connect(self, a: str, b: str, transport: TransportSpec) -> None:
        """Create a bidirectional link between hosts ``a`` and ``b``."""
        if a == b:
            raise NetworkError("cannot connect a host to itself")
        self.host(a)
        self.host(b)
        self._links[self._key(a, b)] = transport

    def transport_between(self, a: str, b: str) -> TransportSpec:
        try:
            return self._links[self._key(a, b)]
        except KeyError:
            raise HostUnreachableError(
                f"no link between {a!r} and {b!r}"
            ) from None

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def lookahead_us(self, nbytes: int = 0) -> float:
        """Conservative lookahead bound across every link on this fabric.

        The smallest latency any configured transport can possibly
        deliver for an ``nbytes`` message — the safe-advance window for
        a parallel runner sharding hosts of this fabric across
        processes.  Raises :class:`~repro.errors.NetworkError` when the
        fabric has no links (no bound exists).
        """
        if not self._links:
            raise NetworkError("fabric has no links; no lookahead bound")
        return min(
            spec.min_one_way_us(nbytes) for spec in self._links.values()
        )

    # -- latency sampling ----------------------------------------------------

    def sample_one_way(self, src: str, dst: str, nbytes: int) -> float:
        """Sampled one-way latency in µs for an ``nbytes`` message."""
        return self.transport_between(src, dst).one_way_us(nbytes, self._rng)

    def sample_rtt(
        self,
        src: str,
        dst: str,
        request_bytes: int,
        response_bytes: int,
        server_us: float = 0.0,
    ) -> float:
        """Sampled round-trip latency in µs."""
        return self.transport_between(src, dst).round_trip_us(
            request_bytes, response_bytes, self._rng, server_us=server_us
        )

    # -- simulation processes -------------------------------------------------

    def rpc(
        self,
        src: str,
        dst: str,
        request_bytes: int,
        response_bytes: int,
        server_us: float = 0.0,
        payload: Optional[object] = None,
    ) -> Generator:
        """A sub-process performing one RPC; returns ``payload``.

        Holds the source NIC while the request serializes so concurrent
        senders on one host contend.  Use as ``result = yield from
        fabric.rpc(...)`` inside a simulation process.
        """
        env = self.env
        source = self.host(src)
        self.host(dst)
        transport = self.transport_between(src, dst)

        if env._now < source.nic_busy_until:
            # An inline RPC still holds the NIC: queue behind it, as
            # behind a granular rpc's hold, until its release instant.
            yield env.timeout_at(source.nic_busy_until)
        request = source.nic.try_acquire()
        if request is None:
            request = source.nic.request()
            yield request
        try:
            serialization_us = transport.serialization_us(request_bytes)
            if not env.try_advance(serialization_us):
                yield env.timeout(serialization_us)
        finally:
            source.nic.release(request)

        remaining = self._remaining_us(
            transport, request_bytes, response_bytes, server_us
        )
        if not env.try_advance(remaining):
            yield env.timeout(remaining)
        return payload

    def _remaining_us(
        self,
        transport: TransportSpec,
        request_bytes: int,
        response_bytes: int,
        server_us: float,
    ) -> float:
        """Post-serialization RPC time: both one-way draws, in order."""
        return max(
            0.0,
            transport.one_way_us(request_bytes, self._rng)
            - transport.serialization_us(request_bytes)
            + server_us
            + transport.one_way_us(response_bytes, self._rng),
        )

    def inline_rpc(
        self,
        src: str,
        dst: str,
        request_bytes: int,
        response_bytes: int,
        server_us: float = 0.0,
    ) -> Optional[float]:
        """Absolute completion time of an RPC started now, or ``None``.

        The process-free twin of :meth:`rpc` for a caller that would
        otherwise spawn a fresh process to run it (DESIGN.md §17).  The
        spawned process would start at its ``Initialize`` — the very next
        event — take the idle NIC, finish serializing at ``now + ser``
        and only then draw its two one-way samples.  That is equivalent
        to drawing them here, now, when nothing else can run first and
        nothing can take the NIC ahead of it:

        * fast-path switch on, no schedule policy, no ``run(until=<time>)``
          cap;
        * a single-queue client NIC with no holder, no waiter and no
          inline hold still running;
        * no heap event at or before the end of serialization.

        On success the NIC counts as held until ``now + ser``
        (:attr:`Host.nic_busy_until`, honoured by :meth:`rpc` and by this
        guard), the same two samples are drawn in the same order, and
        ``sent + remaining`` is returned exactly as :meth:`rpc` computes
        it.  Returns ``None``, drawing nothing, when any guard fails or
        a host or link is unknown (the granular path raises that error).
        """
        counters = self.counters
        if not _simcore.FASTPATH_ON:
            counters.incr("refused_switch_off")
            return None
        env = self.env
        if env.scheduler is not None:
            counters.incr("refused_scheduler")
            return None
        if env._until_cap is not None:
            counters.incr("refused_until_cap")
            return None
        transport = self._links.get(self._key(src, dst))
        if transport is None:
            return None
        source = self._hosts[src]  # a link implies both hosts exist
        nic = source.nic
        now = env._now
        if (
            nic.capacity != 1
            or nic._users
            or nic._queue
            or now < source.nic_busy_until
        ):
            counters.incr("refused_nic_busy")
            return None
        sent = now + transport.serialization_us(request_bytes)
        heap = env._heap
        if heap and heap[0][0] <= sent:
            counters.incr("refused_heap_window")
            return None
        source.nic_busy_until = sent
        counters.incr("inline_rpcs")
        return sent + self._remaining_us(
            transport, request_bytes, response_bytes, server_us
        )

    def __repr__(self) -> str:
        return (
            f"<Fabric hosts={len(self._hosts)} links={len(self._links)}>"
        )
