"""repro.serve: async batched readout classification as a service.

The paper's end state is readout classification *in the control loop*:
shots arrive continuously and labels must come back inside the
decoherence budget.  This package is the host-side rehearsal of that
deployment shape -- a dependency-free asyncio service in front of the
warm, calibrated classifiers:

- :mod:`~repro.serve.protocol` -- line/JSON wire format, typed
  400-class rejection of malformed requests;
- :mod:`~repro.serve.models` -- the warm :class:`ModelRegistry`
  (calibrate once, share read-only across threads);
- :mod:`~repro.serve.batcher` -- the :class:`MicroBatcher` fusing
  concurrent requests into single vectorized ``predict`` calls,
  bit-identically;
- :mod:`~repro.serve.server` -- :class:`ClassifierServer`: admission
  (429 back-pressure) then deadline then the batcher, slow-client
  eviction, plain integer counts of every outcome plus one cumulative
  latency histogram, and a ``kind="serve"`` session RunRecord;
- :mod:`~repro.serve.client` -- the blocking :class:`ServeClient`.

An in-band ``{"op": "stats"}`` request (``client.stats()``) returns
the session counts without disturbing traffic: the server answers it
before admission, so a scrape is never rejected or queued.

Quick start (in process)::

    from repro.serve import ModelRegistry, ServeClient, ServerThread

    registry = ModelRegistry.calibrated()      # warm knn + hdc
    with ServerThread(registry) as handle:
        with ServeClient(handle.host, handle.port) as client:
            labels = client.classify("knn", iq_points)

or from the shell: ``repro serve --port 8742``.
"""

from __future__ import annotations

from repro.serve.batcher import MicroBatcher
from repro.serve.client import ServeClient
from repro.serve.models import ModelRegistry, UnknownModelError
from repro.serve.protocol import ADMIN_OPS, encode_op_request
from repro.serve.server import ClassifierServer, ServeConfig, ServerThread

__all__ = [
    "ADMIN_OPS",
    "ClassifierServer",
    "MicroBatcher",
    "ModelRegistry",
    "ServeClient",
    "ServeConfig",
    "ServerThread",
    "UnknownModelError",
    "encode_op_request",
]
