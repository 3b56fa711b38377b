"""Discrete-event simulation substrate.

This package is the reproduction's stand-in for the paper's physical testbed
(IBM WebSphere application servers + DB2 database driven by JMeter load
generators).  It simulates the system model of section 2 of the paper:

* a closed population of clients per service class, each alternating between
  an exponentially distributed think time and a synchronous request;
* an application-server tier in which each server has a FIFO admission queue
  feeding a CPU that time-shares up to ``max_concurrency`` requests
  (processor sharing);
* a database server with one FIFO queue per application server, a time-shared
  CPU and a disk that serves one request at a time;
* optional LRU session caching in the application server's main memory
  (section 7.2 of the paper).

The simulator produces the "measured" curves that the three prediction
methods are evaluated against.
"""

from repro.simulation.engine import Simulator
from repro.simulation.metrics import ResponseTimeStats, MetricsCollector
from repro.simulation.resources import ProcessorSharingServer, FifoServer
from repro.simulation.system import (
    SimulatedDeployment,
    SimulationConfig,
    SimulationResult,
    simulate_deployment,
)
from repro.simulation.cache import LruSessionCache
from repro.simulation.open_clients import OpenArrivalProcess

__all__ = [
    "Simulator",
    "ResponseTimeStats",
    "MetricsCollector",
    "ProcessorSharingServer",
    "FifoServer",
    "SimulatedDeployment",
    "SimulationConfig",
    "SimulationResult",
    "simulate_deployment",
    "LruSessionCache",
    "OpenArrivalProcess",
]
