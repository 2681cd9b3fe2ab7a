"""Mapping-as-a-service: an asyncio job API over the batch engine.

``repro serve`` turns the one-shot mapping pipeline into a long-lived
service: submissions arrive as v1 wire documents over HTTP
(:mod:`repro.io.serve`), coalesce into micro-batches, run on a
persistent :class:`~repro.engine.MappingEngine` worker pool, and come
back with the same fingerprints the CLI computes — while duplicate
requests (in flight or repeated) are answered from one solve via
canonical-hash dedupe and a two-tier result store.

``repro serve --replicas N`` scales the same service out: a
:class:`~repro.serve.service.ReplicaSupervisor` boots N replica
processes over one shared on-disk cache, and a
:class:`~repro.serve.router.RouterService` front end consistent-hashes
submissions across them with admission control, backpressure, load
shedding and automatic re-hash when a replica dies.
"""

from .batcher import MicroBatcher
from .client import ServeClient, ServeClientError
from .protocol import HttpRequest, ProtocolError
from .queue import JobQueue, QueuedTicket
from .router import HashRing, RouterServer, RouterService, routing_key
from .server import MappingServer
from .service import MappingService, ReplicaSupervisor, ServeError
from .store import ResultStore, WarmStateStore

__all__ = [
    "JobQueue",
    "QueuedTicket",
    "MicroBatcher",
    "ResultStore",
    "WarmStateStore",
    "MappingService",
    "ReplicaSupervisor",
    "ServeError",
    "MappingServer",
    "ServeClient",
    "ServeClientError",
    "HashRing",
    "RouterService",
    "RouterServer",
    "routing_key",
    "HttpRequest",
    "ProtocolError",
]
