"""scipy's compiled sparse products without ``scipy.sparse``.

:mod:`repro.core.sparsetools` loads scipy's ``_sparsetools`` extension
by itself, so no decode or sweep path imports the ``scipy.sparse``
package. The tests pin the loader in both import orders, and that a
decode service session, ``run_amp``, ``two_stage_reconstruct`` and a
serial ``figure6`` leave ``scipy.sparse`` and ``numpy.ma`` unimported.
Each check runs in a fresh interpreter: the test process has imported
both long before.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports the package."""
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_loader_alone_imports_no_scipy_module():
    out = _run_fresh(
        """
        import sys
        import numpy as np
        from repro.core import sparsetools

        indptr = np.array([0, 2, 3])
        indices = np.array([0, 2, 1])
        data = np.array([1.0, 2.0, 3.0])
        out = np.zeros(2)
        sparsetools.csr_matvec(2, 3, indptr, indices, data, np.ones(3), out)
        back = np.zeros(3)
        sparsetools.csc_matvec(3, 2, indptr, indices, data, np.ones(2), back)
        print(out.tolist(), back.tolist())
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    assert out.splitlines() == ["[3.0, 3.0] [1.0, 3.0, 2.0]", "[]"]


def test_loader_then_scipy_sparse():
    # Loaded first, the extension stays out of sys.modules; a later
    # ``import scipy.sparse`` imports it as its own submodule, from the
    # same initialized extension, and scipy's products still work.
    out = _run_fresh(
        """
        import numpy as np
        from repro.core import sparsetools
        import scipy.sparse as sp

        assert sp._sparsetools.csr_matvec is sparsetools.csr_matvec
        assert sp._sparsetools.csc_matvec is sparsetools.csc_matvec
        a = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        print((a @ np.ones(3)).tolist(), (a.T @ np.ones(2)).tolist())
        """
    )
    assert out == "[3.0, 3.0] [1.0, 3.0, 2.0]"


def test_scipy_sparse_then_loader():
    # Already imported by scipy, the extension module is reused as is.
    out = _run_fresh(
        """
        import scipy.sparse as sp
        from repro.core import sparsetools

        assert sparsetools._module is sp._sparsetools
        print(sparsetools.csr_matvec is sp._sparsetools.csr_matvec)
        """
    )
    assert out == "True"


def test_decode_paths_import_neither_scipy_sparse_nor_numpy_ma():
    out = _run_fresh(
        """
        import asyncio
        import sys

        import repro
        from repro.amp import run_amp
        from repro.core.twostage import two_stage_reconstruct
        from repro.experiments.figures import figure6
        from repro.service.server import DecodeService
        from repro.service.session import channel_to_spec

        n, channel = 300, repro.ZChannel(0.1)
        truth = repro.sample_ground_truth(n, 3, rng=1)
        graph = repro.sample_pooling_graph(n, 150, rng=2)
        meas = repro.measure(graph, truth, channel, rng=3)
        queries = [
            (graph.agents[lo:hi].tolist(), graph.counts[lo:hi].tolist(),
             float(result))
            for lo, hi, result in zip(
                graph.indptr[:-1], graph.indptr[1:], meas.results
            )
        ]

        async def session():
            service = DecodeService()
            service.batcher.start()
            requests = [
                {"op": "open_session", "session_id": "s", "n": n,
                 "gamma": graph.gamma, "channel": channel_to_spec(channel),
                 "centering": "half_k", "sigma": truth.sigma.tolist()},
                {"op": "ingest", "session_id": "s", "request_id": "i",
                 "queries": queries},
                {"op": "decode", "session_id": "s", "request_id": "d",
                 "algorithm": "amp", "m": None, "deadline": None,
                 "return_scores": False},
            ]
            try:
                return [await service._safe_dispatch(r) for r in requests]
            finally:
                await service.batcher.stop()

        replies = asyncio.run(session())
        assert all(reply["ok"] for reply in replies), replies
        assert replies[-1]["m"] == 150 and not replies[-1]["degraded"]
        run_amp(meas)
        two_stage_reconstruct(meas)
        figure6(n=200, trials=2, m_values=[40, 80], seed=1, backend="serial")
        print([m for m in ("scipy.sparse", "numpy.ma") if m in sys.modules])
        """
    )
    assert out == "[]"


def test_missing_extension_names_the_directory(tmp_path):
    # No fallback: a scipy without the compiled extension fails the
    # import, naming where the loader looked.
    fake = tmp_path / "scipy"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.core.sparsetools"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src])),
    )
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    assert str(fake / "sparse") in proc.stderr
