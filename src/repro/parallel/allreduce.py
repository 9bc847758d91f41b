"""Ring AllReduce cost model (Patarasuk & Yuan; what Horovod implements).

A ring allreduce of ``S`` bytes over ``N`` workers sends
``2 * S * (N - 1) / N`` bytes over every ring link in ``2(N - 1)``
steps; the completion time is governed by the slowest link.  On the
paper's testbed rings either stay inside one node (PCIe) or cross nodes
(InfiniBand); the *achieved* ring bandwidths are calibration constants
fitted to the paper's own Horovod rows in Table 4 (the fit reproduces
all eight entries within ~12%; see EXPERIMENTS.md):

* PCIe ring (one node, 4 GPUs through one switch): ~1.7 GB/s
* InfiniBand ring (multi-node, gRPC-staged): ~1.15 GB/s

The *cross-node traffic* metric matches the paper's arithmetic in §8.3:
``S * (N - 1) / N`` (548 MiB * 15/16 = the quoted 515 MB for VGG-19,
230 MiB * 11/12 = the quoted 211 MB for ResNet-152 on 12 GPUs).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.cluster.gpu import GPUDevice
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError
from repro.models.calibration import Calibration, DEFAULT_CALIBRATION
from repro.netsim.fabric import DEFAULT_FABRIC_SPEC, Endpoint, Fabric, FabricSpec
from repro.sim.engine import Simulator
from repro.sim.resources import Channel


def ring_bandwidth(gpus: Sequence[GPUDevice], calibration: Calibration = DEFAULT_CALIBRATION) -> float:
    """Achieved bandwidth of the slowest link in the ring over ``gpus``."""
    if len(gpus) < 2:
        raise ConfigurationError("a ring needs at least two GPUs")
    nodes = {gpu.node_id for gpu in gpus}
    if len(nodes) == 1:
        return calibration.horovod_pcie_ring_bandwidth
    return calibration.horovod_ib_ring_bandwidth


def ring_allreduce_time(
    nbytes: float,
    gpus: Sequence[GPUDevice],
    calibration: Calibration = DEFAULT_CALIBRATION,
    step_latency: float = 25e-6,
) -> float:
    """Time for one ring allreduce of ``nbytes`` over ``gpus``."""
    n = len(gpus)
    if n == 1:
        return 0.0
    per_link = 2.0 * nbytes * (n - 1) / n
    return per_link / ring_bandwidth(gpus, calibration) + 2 * (n - 1) * step_latency


def cross_node_allreduce_bytes(nbytes: float, n_workers: int) -> float:
    """The paper's §8.3 cross-node traffic metric: ``S * (N-1) / N``."""
    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    if n_workers == 1:
        return 0.0
    return nbytes * (n_workers - 1) / n_workers


def simulate_ring_allreduce(
    sim: Simulator,
    gpus: Sequence[GPUDevice],
    nbytes: float,
    calibration: Calibration = DEFAULT_CALIBRATION,
    fabric: Fabric | None = None,
    step_latency: float = 25e-6,
    on_complete: Callable[[float], None] | None = None,
) -> None:
    """Run one ring allreduce as simulated transfers, step by step.

    Each of the ``2 (N - 1)`` steps sends an ``S / N`` chunk from every
    worker to its ring successor, with a barrier between steps (NCCL's
    synchronous ring).  With ``fabric=None`` every ring edge is a private
    link at the calibrated ring bandwidth, which reproduces
    :func:`ring_allreduce_time` exactly; with a :class:`Fabric` the
    chunks are real flows contending for the shared NICs and PCIe
    switches, so co-located rings and PS traffic slow each other down.

    ``on_complete`` receives the absolute completion time.
    """
    n = len(gpus)
    if n == 1:
        if on_complete is not None:
            sim.schedule(0.0, on_complete, sim.now)
        return
    if n < 2:
        raise ConfigurationError("a ring needs at least two GPUs")
    chunk = nbytes / n
    total_steps = 2 * (n - 1)
    edges: list[Callable[[Callable[[], None]], None]] = []
    if fabric is None:
        bandwidth = ring_bandwidth(gpus, calibration)
        for i, gpu in enumerate(gpus):
            link = Channel(
                sim, bandwidth, step_latency,
                f"ring.{gpu.gpu_id}->{gpus[(i + 1) % n].gpu_id}",
            )
            edges.append(lambda done, link=link: link.transfer(chunk, done))
    else:
        # The calibrated ring bandwidth is a *software* bound (what the
        # allreduce stack achieves per edge); cap fabric flows at it so
        # an uncongested shared run is never faster than the dedicated
        # model — wider links only help if the stack could use them.
        cap = ring_bandwidth(gpus, calibration)
        for i, gpu in enumerate(gpus):
            # endpoints resolved once per ring edge, not once per chunk
            src, dst = Endpoint.gpu(gpu), Endpoint.gpu(gpus[(i + 1) % n])
            edges.append(
                lambda done, src=src, dst=dst: fabric.transfer(
                    src, dst, chunk, done, tag="allreduce", rate_cap=cap,
                )
            )

    state = {"step": 0, "left": 0}

    def start_step() -> None:
        state["step"] += 1
        state["left"] = n
        for edge in edges:
            edge(edge_done)

    def edge_done() -> None:
        state["left"] -= 1
        if state["left"] == 0:
            if state["step"] < total_steps:
                start_step()
            elif on_complete is not None:
                on_complete(sim.now)

    start_step()


def measure_ring_allreduce(
    cluster: Cluster,
    gpus: Sequence[GPUDevice],
    nbytes: float,
    calibration: Calibration = DEFAULT_CALIBRATION,
    network_model: str = "dedicated",
    fabric_spec: FabricSpec = DEFAULT_FABRIC_SPEC,
    rings: int = 1,
) -> float:
    """Wall time of ``rings`` concurrent ring allreduces over ``gpus``.

    With the dedicated model concurrent rings do not interact (each edge
    is private), so the time is independent of ``rings``; on the shared
    fabric they contend for NICs and switches — the gap is the modeled
    contention cost.
    """
    if rings < 1:
        raise ConfigurationError("rings must be >= 1")
    sim = Simulator()
    fabric = (
        Fabric(sim, cluster, fabric_spec) if network_model == "shared" else None
    )
    finished: list[float] = []
    for _ in range(rings):
        simulate_ring_allreduce(
            sim, gpus, nbytes, calibration, fabric=fabric,
            on_complete=finished.append,
        )
    sim.run_until_idle()
    if len(finished) != rings:
        raise ConfigurationError("allreduce simulation did not complete")
    if fabric is not None:
        fabric.verify()
    return max(finished)
