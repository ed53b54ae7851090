"""Trace persistence: CSV import/export of flow-level traces.

The on-disk format is a plain CSV with a header, one row per flow::

    flow_id,client_id,start_time,size_bytes,kind

plus a small JSON side-car describing the deployment (duration, number of
gateways, client→home-gateway mapping).  This keeps the traces readable and
diffable while staying dependency-free.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Union

from repro.traces.models import ClientTrace, Flow, WirelessTrace

PathLike = Union[str, Path]


def write_trace(trace: WirelessTrace, flows_path: PathLike, meta_path: PathLike | None = None) -> None:
    """Write a trace to ``flows_path`` (CSV) and ``meta_path`` (JSON).

    If ``meta_path`` is omitted it defaults to ``flows_path`` with a
    ``.meta.json`` suffix.
    """
    flows_path = Path(flows_path)
    meta_path = Path(meta_path) if meta_path is not None else flows_path.with_suffix(".meta.json")

    with flows_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["flow_id", "client_id", "start_time", "size_bytes", "kind"])
        for flow in trace.all_flows():
            writer.writerow([flow.flow_id, flow.client_id, f"{flow.start_time:.6f}", flow.size_bytes, flow.kind])

    meta = {
        "duration": trace.duration,
        "num_gateways": trace.num_gateways,
        "home_gateway": {str(c): g for c, g in trace.home_gateway.items()},
    }
    meta_path.write_text(json.dumps(meta, indent=2))


def read_trace(flows_path: PathLike, meta_path: PathLike | None = None) -> WirelessTrace:
    """Read a trace previously written by :func:`write_trace`.

    The program never reads a trace back: this is the round-trip oracle
    that the tests hold what ``repro-access trace`` writes to.
    """
    flows_path = Path(flows_path)
    meta_path = Path(meta_path) if meta_path is not None else flows_path.with_suffix(".meta.json")

    meta = json.loads(meta_path.read_text())
    home_gateway: Dict[int, int] = {int(c): int(g) for c, g in meta["home_gateway"].items()}
    clients: Dict[int, ClientTrace] = {c: ClientTrace(client_id=c) for c in home_gateway}

    with flows_path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            flow = Flow(
                flow_id=int(row["flow_id"]),
                client_id=int(row["client_id"]),
                start_time=float(row["start_time"]),
                size_bytes=int(row["size_bytes"]),
                kind=row.get("kind", "web") or "web",
            )
            if flow.client_id not in clients:
                raise ValueError(
                    f"flow {flow.flow_id} references client {flow.client_id} "
                    "which is missing from the metadata"
                )
            clients[flow.client_id].flows.append(flow)

    return WirelessTrace(
        duration=float(meta["duration"]),
        clients=clients,
        home_gateway=home_gateway,
        num_gateways=int(meta["num_gateways"]),
    )
