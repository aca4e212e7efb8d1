"""The benchmark's traced runs wrap program names; they must all exist.

``perfbench/layers.py`` patches layer boundaries of the package by name
(``MeasurementStream.next_block``, ``decode_prefix_batch``,
``Session.ingest``, ...). Installing its hooks here, on the current
package, makes renaming or deleting a wrapped name fail the tests, not
only the traced benchmark run. The benchmark files are loaded read-only
from their paths and never imported as a package.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_hooks_install_and_restore(tmp_path):
    import numpy as np

    import repro
    from repro.amp import batch_amp
    from repro.core import batch, pooling
    from repro.service.session import Session, SessionParams
    from repro.service.store import SessionStore

    layers, spans = _load("layers"), _load("spans")
    # perfbench wraps and calls the sampler under its batch-module name
    assert batch.sample_pooling_graph_batch is pooling.sample_pooling_graph
    watched = [
        (batch, "sample_pooling_graph_batch"),
        (batch.MeasurementStream, "next_block"),
        (batch.BatchTrialRunner, "run_trials_seeded"),
        (batch_amp, "run_amp_batch"),
        (batch_amp, "run_amp_trials"),
        (batch_amp, "decode_prefix_batch"),
        (Session, "ingest"),
    ]
    before = [getattr(owner, attr) for owner, attr in watched]
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        for (owner, attr), original in zip(watched, before):
            assert getattr(owner, attr) is not original, attr
        # two hooks read program state: a slice's indptr and gamma, and
        # a saved record's size through SessionStore._path
        gen = np.random.default_rng(0)
        truth = repro.sample_ground_truth(40, 2, gen)
        stream = batch.MeasurementStream(
            40, 20, repro.NoiselessChannel(), truth, gen, max_m=8
        )
        stream.next_block()
        assert tracer.counts["core.batch.edges_sampled"] == 8 * 20
        session = Session(
            "s", SessionParams.create(40, 20, {"kind": "noiseless"}, "half_k"),
            truth.sigma,
        )
        SessionStore(tmp_path).save(session)
        assert tracer.counts["service.store.record_bytes"] > 0
    finally:
        tracer.restore()
    assert [getattr(owner, attr) for owner, attr in watched] == before
