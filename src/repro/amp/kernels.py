"""Pluggable compute kernels for the AMP iteration.

Every AMP path in the library — standalone :func:`repro.amp.run_amp`,
the block-diagonal batched runner, and the heterogeneous-m
required-queries probe stacks — funnels through one iteration driver
(:func:`repro.amp.amp.iterate_amp`). This module is the compute seam
underneath that driver: the per-iteration array passes are grouped
into two phase calls an :class:`AMPKernel` backend implements,

``adjoint_posterior``
    the adjoint matvec plus everything before the forward matvec —
    ``rmv = A_s^T z``, the per-trial effective noise ``tau`` from
    residual segment sums, the denoiser value+derivative, damping, the
    Onsager coefficient and the step norm;
``forward_residual``
    the forward matvec plus the residual update
    ``z' = y - A_s sigma + onsager * z`` and damping.

The matvec pair lives *inside* the seam: the driver hands each phase a
:class:`CSRStackOperator` (the standardized block-diagonal stack in
raw CSR form), and the backend decides how to apply it — the reference
kernel applies the operator's own products (scipy's sparsetools
CSR / CSC routines on the stored arrays, the ones ``@`` dispatches
to, then the pre-seam centering and scaling), the fused backend runs
one jitted CSR segment loop per phase with the adjacent array passes
inlined (no
``(T*m,)``/``(T*n,)`` intermediates), and the GPU backend keeps a
cached device copy of the stack. The narrower ``posterior_step`` /
``residual_step`` phase methods remain as the matvec-free inner
halves; generic operators (e.g. the dense debugging path's
:class:`MatvecOperator`) run through them unchanged. A
:class:`StackLayout` value describes the trial stack — uniform
``(T, m)`` or ragged ``row_sizes`` — so one driver and one kernel
interface cover both stack shapes.

Backends
--------
``numpy`` (default)
    The reference kernel: performs exactly the floating-point
    operations the pre-seam loops performed, in the same order, in
    float64 — its outputs are **bit-identical by construction** to the
    pre-refactor implementation (pinned against captured goldens in
    ``tests/test_kernels.py``). It reaches them through as few Python
    calls as it can: bare ufuncs and reductions, in-place passes, and
    the sparse products without scipy's ``@`` dispatch.
``numpy32``
    The same operations computed in float32 end to end (inputs are
    cast once at the seam; the denoisers honor the input dtype).
    Opt-in, tolerance-tested — halves the memory traffic of every
    pass.
``numba`` / ``numba32``
    Optional fused backend: each phase runs as one jitted loop over
    the ragged segment bounds — the CSR matvec, segment sums,
    denoiser, damping, Onsager and step norm in a single pass over the
    stack, with the denoiser inlined from its flat
    :meth:`repro.amp.denoisers.Denoiser.kernel_form` parameters (no
    Python callback per segment, no flat matvec intermediates).
    Requires the ``numba`` package; when it is missing,
    :func:`resolve_kernel` warns once and falls back to the matching
    NumPy kernel, so ``REPRO_KERNEL=numba`` is always safe to export.
    Accumulation order inside a fused loop differs from NumPy's
    pairwise sums, so these backends are equivalence-tested within
    tolerance, not bit-identical.
``cupy`` / ``cupy32``
    Optional GPU backend on the same phase interface: the stacked CSR
    is copied to the device once per operator (cached on the
    operator), and both phases run as cupy array programs mirroring
    the reference arithmetic, returning host arrays at the seam.
    Requires the ``cupy`` package; when it is missing the resolver
    degrades exactly like the numba fallback — one warning per
    process, then the matching-precision NumPy kernel — so
    ``REPRO_KERNEL=cupy`` is always safe to export. GPU reductions
    reorder sums, so these backends are tolerance-equivalent, never
    bit-identical.

Selection
---------
``resolve_kernel(kernel)`` resolves, in precedence order: an explicit
:class:`AMPKernel` instance or name passed as ``kernel=`` to any AMP
entry point, then the :data:`REPRO_KERNEL` environment variable, then
``"numpy"``. The environment route reaches process-pool workers for
free (spawned workers inherit the environment), so exporting
``REPRO_KERNEL`` switches every backend of a sweep at once.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.amp.denoisers import TAU_FLOOR, Denoiser

#: environment variable consulted when ``kernel`` is not given
KERNEL_ENV = "REPRO_KERNEL"

#: registered kernel backend names (see the module docstring)
KERNELS = ("numpy", "numpy32", "numba", "numba32", "cupy", "cupy32")


# -- stack layout --------------------------------------------------------


def _common_length(m: Optional[int], m_cur: Optional[np.ndarray]) -> Optional[int]:
    """The one segment length of a stack, or ``None`` when lengths differ."""
    if m_cur is None:
        return int(m)
    if m_cur.size and (m_cur == m_cur[0]).all():
        return int(m_cur[0])
    return None


def _ragged_sums(flat: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Pairwise sum of each flat segment, bit for bit ``flat[a:b].sum()``.

    One reduction per segment: ``np.add.reduceat`` sums sequentially
    and would change the bits.
    """
    return np.array(
        [np.add.reduce(flat[bounds[i] : bounds[i + 1]]) for i in range(bounds.size - 1)]
    )


class StackLayout:
    """Shape descriptor for one AMP trial stack.

    Unifies the two stack forms the iteration driver runs on: the
    uniform ``(T, m)`` stack (every trial shares one query count) and
    the ragged flat stack segmented by per-trial ``row_sizes`` (the
    required-m prefix probes). Kernels read per-trial standardization
    scalars — ``sqrt_m``, ``n/m`` — from the layout; the layout stores
    them in the kernel's dtype so a float32 kernel never silently
    promotes through a float64 scalar.

    For the float64 reference kernel the stored scalars are exactly
    the values the pre-seam loops computed inline (``np.sqrt(m)``,
    ``n / m``, ``np.sqrt(m_cur.astype(float64))``, ``n / m_cur``), so
    layout-mediated arithmetic is bit-identical to the originals.
    """

    def __init__(
        self,
        *,
        rows: int,
        n: int,
        dtype: np.dtype,
        m: Optional[int] = None,
        m_cur: Optional[np.ndarray] = None,
    ) -> None:
        self.rows = rows
        self.n = n
        self.dtype = np.dtype(dtype)
        self.m = m
        self.m_cur = m_cur
        self.uniform = m_cur is None
        if self.uniform:
            self.sqrt_m = self.dtype.type(np.sqrt(m))
            self.nm_ratio = self.dtype.type(n / m)
        else:
            self.sqrt_m = np.sqrt(m_cur.astype(np.float64)).astype(
                self.dtype, copy=False
            )
            self.nm_ratio = (n / m_cur).astype(self.dtype, copy=False)
        self.sqrt_n = self.dtype.type(np.sqrt(n))
        # np.mean's divisor: the intp count, which its float64 loop
        # converts exactly; a float64 ``n`` is the same divisor.
        self.n_items = np.float64(n)
        self.seg_len = _common_length(m, m_cur)
        self._bounds: Optional[np.ndarray] = None

    @classmethod
    def for_uniform(cls, rows: int, n: int, m: int, dtype) -> "StackLayout":
        return cls(rows=rows, n=n, dtype=dtype, m=m)

    @classmethod
    def for_ragged(cls, n: int, row_sizes: np.ndarray, dtype) -> "StackLayout":
        m_cur = np.asarray(row_sizes, dtype=np.int64)
        return cls(rows=m_cur.size, n=n, dtype=dtype, m_cur=m_cur)

    @property
    def bounds(self) -> np.ndarray:
        """Flat-stack segment boundaries ``[0, m_0, m_0+m_1, ...]``.

        Built lazily: the uniform NumPy path never touches them, while
        the fused backends loop over them for both stack shapes.
        """
        if self._bounds is None:
            if self.uniform:
                self._bounds = np.arange(
                    self.rows + 1, dtype=np.int64
                ) * int(self.m)
            else:
                bounds = np.empty(self.rows + 1, dtype=np.int64)
                bounds[0] = 0
                np.cumsum(self.m_cur, out=bounds[1:])
                self._bounds = bounds
        return self._bounds

    def segment_sums(self, arr: np.ndarray) -> np.ndarray:
        """Per-trial sums of a measurement-side array (``y``/``z``).

        Equal-length segments reduce through one reshaped pairwise sum,
        others one segment at a time; both give each trial exactly the
        bits of its own ``segment.sum()``.
        """
        if self.seg_len is not None:
            return np.add.reduce(arr.reshape(self.rows, self.seg_len), axis=1)
        return _ragged_sums(arr, self.bounds)

    def per_row(self, value) -> np.ndarray:
        """Broadcast a layout scalar (or pass a vector) to ``(rows,)``."""
        if np.ndim(value) == 0:
            return np.full(self.rows, value, dtype=self.dtype)
        return np.ascontiguousarray(value, dtype=self.dtype)

    def restrict(self, active: np.ndarray) -> "StackLayout":
        """Layout for the surviving rows after stack compaction."""
        rows = int(np.count_nonzero(active))
        if self.uniform:
            return StackLayout(rows=rows, n=self.n, dtype=self.dtype, m=self.m)
        layout = StackLayout(
            rows=rows, n=self.n, dtype=self.dtype, m_cur=self.m_cur[active]
        )
        # Slice (not recompute) the standardization vectors, exactly
        # like the pre-seam compaction did.
        layout.sqrt_m = self.sqrt_m[active]
        layout.nm_ratio = self.nm_ratio[active]
        return layout

    def compact_measure(self, arr: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Drop frozen rows from a measurement-side array (``y``/``z``)."""
        if self.uniform:
            return np.ascontiguousarray(arr[active])
        bounds = self.bounds
        return np.concatenate(
            [arr[bounds[i] : bounds[i + 1]] for i in np.flatnonzero(active)]
        )

    def restore_rows(
        self, dst: np.ndarray, src: np.ndarray, inactive: np.ndarray
    ) -> None:
        """Copy frozen rows of a measurement-side array back into ``dst``."""
        if self.uniform:
            dst[inactive] = src[inactive]
            return
        bounds = self.bounds
        for i in np.flatnonzero(inactive):
            dst[bounds[i] : bounds[i + 1]] = src[bounds[i] : bounds[i + 1]]


# -- stack operators -----------------------------------------------------


class MatvecOperator:
    """Adapter wrapping plain ``(matvec, rmatvec)`` flat-vector callables.

    Used by paths that have no raw CSR stack to expose (the dense
    debugging path of :func:`repro.amp.run_amp`); every kernel applies
    it through the generic phase implementations.
    """

    def __init__(self, matvec, rmatvec) -> None:
        self._matvec = matvec
        self._rmatvec = rmatvec

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matvec(x)

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        return self._rmatvec(z)


class CSRStackOperator:
    """Standardized block-diagonal trial stack in raw CSR form.

    Carries everything a backend needs to apply the standardized
    forward map ``x -> (A x - c s_t) / scale_t`` and its adjoint
    itself: the stacked raw adjacency ``a`` (a scipy CSR matrix over
    the column-shifted block-diagonal arrays, shape
    ``(sum(m_t), T*n)``), the centering constant ``c`` and the
    per-trial standardization scales. ``m_per=None`` declares the
    uniform stack (every trial shares ``m`` and one scalar ``scale``);
    otherwise the stack is the ragged heterogeneous-m form with
    per-trial ``scales``.

    :meth:`matvec` / :meth:`rmatvec` are the reference
    implementations. The raw products call scipy's
    ``csr_matvec`` / ``csc_matvec`` sparsetools routines on the stored
    arrays — the routines ``a @ x`` and ``a.T @ z`` end up in — so
    they are the same sequential per-row sums without scipy's
    per-call dispatch. Centering and scaling follow per element, in
    the pre-seam order (for ``T = 1`` exactly the standalone
    ``run_amp`` closures). That keeps the default kernel's in-seam
    matvec pinned to the captured goldens. Fused and GPU backends
    bypass these methods and read the raw ``a.indptr`` /
    ``a.indices`` / ``a.data`` arrays directly; they may cache derived
    device state on the instance (see :class:`CupyKernel`).
    """

    def __init__(
        self,
        a,
        *,
        n: int,
        c: float,
        scale: Optional[float] = None,
        m_per: Optional[np.ndarray] = None,
        scales: Optional[np.ndarray] = None,
    ) -> None:
        # ``a`` is a scipy matrix, so scipy.sparse is already imported;
        # importing it here keeps it off the package's import path.
        from scipy.sparse import _sparsetools

        self._csr_matvec = _sparsetools.csr_matvec
        self._csc_matvec = _sparsetools.csc_matvec
        self.a = a
        self.n = int(n)
        self.trials = a.shape[1] // self.n
        self.c = c
        self.uniform = m_per is None
        self.dtype = np.dtype(a.dtype)
        if self.uniform:
            if scale is None:
                raise ValueError("uniform stacks require scale=")
            self.m = a.shape[0] // max(self.trials, 1)
            self.scale = float(scale)
            self.seg_len = self.m
        else:
            if scales is None:
                raise ValueError("ragged stacks require scales=")
            self.m_per = np.asarray(m_per, dtype=np.int64)
            self.scales = np.asarray(scales, dtype=np.float64)
            self.bounds = np.concatenate(([0], np.cumsum(self.m_per)))
            self.seg_len = _common_length(None, self.m_per)
            # Per-trial scale vectors in the working dtype: float64
            # stays the exact pre-float32 arithmetic, float32 avoids
            # the silent promotion a float64 divisor would cause under
            # NEP 50.
            self.row_scale = np.repeat(self.scales, self.m_per).astype(
                self.dtype, copy=False
            )
            self.scales_col = self.scales.astype(self.dtype, copy=False)[
                :, None
            ]

    def per_trial_scales(self) -> np.ndarray:
        """Float64 ``(T,)`` standardization scales (fused backends)."""
        if self.uniform:
            return np.full(self.trials, self.scale, dtype=np.float64)
        return self.scales

    def _product(self, routine, rows: int, cols: int, v: np.ndarray) -> np.ndarray:
        """``routine`` applied to the stored arrays, as scipy's ``@`` does.

        The routine accumulates into a zeroed output of the stack's
        dtype (and raises if ``v`` would need a wider one).
        """
        out = np.zeros(rows, dtype=self.dtype)
        a = self.a
        routine(rows, cols, a.indptr, a.indices, a.data, v, out)
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        rows, cols = self.a.shape
        out = self._product(self._csr_matvec, rows, cols, x)
        centering = self.c * np.add.reduce(
            x.reshape(self.trials, self.n), axis=1
        )
        if self.seg_len is not None:
            view = out.reshape(self.trials, self.seg_len)
            view -= centering[:, None]
        else:
            out -= np.repeat(centering, self.m_per)
        out /= self.scale if self.uniform else self.row_scale
        return out

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        rows, cols = self.a.shape
        # The transpose is the CSC reading of the same arrays.
        out = self._product(self._csc_matvec, cols, rows, z)
        if self.seg_len is not None:
            s = np.add.reduce(z.reshape(self.trials, self.seg_len), axis=1)
        else:
            s = _ragged_sums(z, self.bounds)
        # Column side is uniform (n per trial): broadcast the per-trial
        # centering/scale on a (T, n) view, the same per-element
        # arithmetic as a flat np.repeat.
        view = out.reshape(self.trials, self.n)
        view -= (self.c * s)[:, None]
        view /= self.scale if self.uniform else self.scales_col
        return out


# -- kernel interface ----------------------------------------------------


class AMPKernel:
    """One backend of the AMP compute seam (the NumPy reference).

    The float64 instance of this class *is* the pre-refactor
    implementation: each method performs the identical floating-point
    operations, in the identical order, that the uniform and ragged
    ``iterate_amp`` loops previously inlined — which is what makes the
    default kernel bit-identical by construction. Only the calls that
    reach them are leaner: ufuncs and their reductions
    (``np.add.reduce``, in-place passes) instead of the ``np.sum`` /
    ``np.mean`` / ``np.clip`` wrappers, which cost several times a
    1000-element pass at the sizes the decode service runs.
    Subclasses override the phase methods with fused implementations.
    """

    def __init__(self, dtype=np.float64, name: str = "numpy") -> None:
        self.dtype = np.dtype(dtype)
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, dtype={self.dtype})"

    def as_working(self, arr: np.ndarray) -> np.ndarray:
        """Cast an input array to the kernel dtype (the one cast point)."""
        return np.ascontiguousarray(arr, dtype=self.dtype)

    def segment_square_sums(
        self, arr: np.ndarray, layout: StackLayout
    ) -> np.ndarray:
        """Per-trial ``sum(arr_i^2)`` over the stack's segments.

        The pairwise sum of each trial's own segment (see
        :meth:`StackLayout.segment_sums`), which matches a standalone
        run's single-row reduction bit for bit — see
        :func:`repro.amp.amp.iterate_amp`.
        """
        return layout.segment_sums(arr * arr)

    def posterior_step(
        self,
        denoiser: Denoiser,
        rmv: np.ndarray,
        sigma: np.ndarray,
        z: np.ndarray,
        layout: StackLayout,
        damping: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The pre-matvec phase of one AMP iteration.

        Consumes the adjoint matvec output ``rmv`` (flat) and the
        current state; returns ``(sigma_new, onsager, tau, step)``:
        the (damped) denoised iterate, the Onsager coefficient for the
        coming residual update, the per-trial effective noise level,
        and the per-trial step norm ``||sigma' - sigma|| / sqrt(n)``.
        ``damping`` is the effective factor for *this* iteration
        (the driver passes 0 on the first one).
        """
        tau = np.maximum(
            np.sqrt(self.segment_square_sums(z, layout)) / layout.sqrt_m,
            TAU_FLOOR,
        )
        r = rmv.reshape(layout.rows, layout.n) + sigma
        # One shared evaluation: the derivative of the Bayes denoiser
        # reuses eta, and both arrays equal the separate calls bit for
        # bit (see Denoiser.value_and_derivative).
        sigma_new, deriv = denoiser.value_and_derivative(r, tau[:, None])
        if damping > 0.0:
            sigma_new = (1.0 - damping) * sigma_new + damping * sigma
        # Onsager coefficient for the *next* residual update (from the
        # undamped derivative). The mean is np.mean's own arithmetic:
        # the pairwise sum divided in place by n in float64.
        mean = np.add.reduce(deriv, axis=1)
        mean /= layout.n_items
        onsager = layout.nm_ratio * mean
        diff = sigma_new - sigma
        diff *= diff
        step = np.sqrt(np.add.reduce(diff, axis=1)) / layout.sqrt_n
        return sigma_new, onsager, tau, step

    def residual_step(
        self,
        y: np.ndarray,
        mv: np.ndarray,
        z: np.ndarray,
        onsager: np.ndarray,
        layout: StackLayout,
        damping: float,
    ) -> np.ndarray:
        """The post-matvec phase: Onsager-corrected residual update."""
        if layout.uniform:
            z_new = y - mv.reshape(layout.rows, layout.m)
            z_new += onsager[:, None] * z
        else:
            z_new = y - mv
            z_new += np.repeat(onsager, layout.m_cur) * z
        if damping > 0.0:
            z_new = (1.0 - damping) * z_new + damping * z
        return z_new

    def residual_norms(self, z: np.ndarray, layout: StackLayout) -> np.ndarray:
        """Per-trial ``||z||_2`` (history tracking)."""
        return np.sqrt(self.segment_square_sums(z, layout))

    # -- matvec-inclusive phases (the full-iteration seam) --------------

    def adjoint_posterior(
        self,
        op,
        denoiser: Denoiser,
        sigma: np.ndarray,
        z: np.ndarray,
        layout: StackLayout,
        damping: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Adjoint matvec plus :meth:`posterior_step` in one phase call.

        The reference implementation applies the operator's own
        ``rmatvec`` (the pre-seam arithmetic, bit-identical by
        construction) and feeds the result into the matvec-free inner
        phase; fused/GPU subclasses override this to run the matvec
        inside their own loop.
        """
        rmv = op.rmatvec(z.reshape(-1))
        return self.posterior_step(denoiser, rmv, sigma, z, layout, damping)

    def forward_residual(
        self,
        op,
        y: np.ndarray,
        sigma_new: np.ndarray,
        z: np.ndarray,
        onsager: np.ndarray,
        layout: StackLayout,
        damping: float,
    ) -> np.ndarray:
        """Forward matvec plus :meth:`residual_step` in one phase call."""
        mv = op.matvec(sigma_new.reshape(-1))
        return self.residual_step(y, mv, z, onsager, layout, damping)


# -- numba backend -------------------------------------------------------

_NUMBA_AVAILABLE: Optional[bool] = None


def numba_available() -> bool:
    """Whether the optional ``numba`` package is importable (cached)."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:
            import numba  # noqa: F401

            _NUMBA_AVAILABLE = True
        except ImportError:
            _NUMBA_AVAILABLE = False
    return _NUMBA_AVAILABLE


_numba_functions: Optional[Dict[str, Callable]] = None


def _get_numba_functions() -> Dict[str, Callable]:
    """Compile (once) the fused jitted loops; import-gated on numba."""
    global _numba_functions
    if _numba_functions is not None:
        return _numba_functions
    import math

    import numba

    @numba.njit(cache=True)
    def seg_sq_sums(flat, bounds):
        rows = bounds.shape[0] - 1
        out = np.empty(rows, dtype=flat.dtype)
        for i in range(rows):
            acc = 0.0
            for j in range(bounds[i], bounds[i + 1]):
                acc += flat[j] * flat[j]
            out[i] = acc
        return out

    @numba.njit(cache=True)
    def bayes_posterior(
        rmv, sigma, z_flat, bounds, sqrt_m, nm_ratio, sqrt_n,
        log_odds, exp_clip, tau_floor, damping,
    ):
        # One pass per trial: residual segment sum -> tau -> inlined
        # Bayes posterior mean + derivative -> damping -> Onsager ->
        # step norm. No Python callback, no intermediate stack arrays.
        rows, n = sigma.shape
        sigma_new = np.empty_like(sigma)
        onsager = np.empty(rows, dtype=sigma.dtype)
        tau = np.empty(rows, dtype=sigma.dtype)
        step = np.empty(rows, dtype=sigma.dtype)
        for i in range(rows):
            acc = 0.0
            for j in range(bounds[i], bounds[i + 1]):
                acc += z_flat[j] * z_flat[j]
            t = math.sqrt(acc) / sqrt_m[i]
            if t < tau_floor:
                t = tau_floor
            tau[i] = t
            half_inv_t2 = 1.0 / (2.0 * t * t)
            deriv_sum = 0.0
            step_sum = 0.0
            base = i * n
            for j in range(n):
                x = rmv[base + j] + sigma[i, j]
                e = log_odds + (1.0 - 2.0 * x) * half_inv_t2
                if e > exp_clip:
                    e = exp_clip
                elif e < -exp_clip:
                    e = -exp_clip
                eta = 1.0 / (1.0 + math.exp(e))
                deriv_sum += eta * (1.0 - eta)
                value = eta
                if damping > 0.0:
                    value = (1.0 - damping) * eta + damping * sigma[i, j]
                d = value - sigma[i, j]
                step_sum += d * d
                sigma_new[i, j] = value
            onsager[i] = nm_ratio[i] * (deriv_sum / (t * t) / n)
            step[i] = math.sqrt(step_sum) / sqrt_n
        return sigma_new, onsager, tau, step

    @numba.njit(cache=True)
    def soft_threshold_posterior(
        rmv, sigma, z_flat, bounds, sqrt_m, nm_ratio, sqrt_n,
        alpha, tau_floor, damping,
    ):
        rows, n = sigma.shape
        sigma_new = np.empty_like(sigma)
        onsager = np.empty(rows, dtype=sigma.dtype)
        tau = np.empty(rows, dtype=sigma.dtype)
        step = np.empty(rows, dtype=sigma.dtype)
        for i in range(rows):
            acc = 0.0
            for j in range(bounds[i], bounds[i + 1]):
                acc += z_flat[j] * z_flat[j]
            t = math.sqrt(acc) / sqrt_m[i]
            if t < tau_floor:
                t = tau_floor
            tau[i] = t
            threshold = alpha * t
            deriv_sum = 0.0
            step_sum = 0.0
            base = i * n
            for j in range(n):
                x = rmv[base + j] + sigma[i, j]
                mag = abs(x) - threshold
                if mag > 0.0:
                    value = mag if x > 0.0 else -mag
                    deriv_sum += 1.0
                else:
                    value = 0.0
                if damping > 0.0:
                    value = (1.0 - damping) * value + damping * sigma[i, j]
                d = value - sigma[i, j]
                step_sum += d * d
                sigma_new[i, j] = value
            onsager[i] = nm_ratio[i] * (deriv_sum / n)
            step[i] = math.sqrt(step_sum) / sqrt_n
        return sigma_new, onsager, tau, step

    @numba.njit(cache=True)
    def residual(y_flat, mv, z_flat, onsager, bounds, damping):
        z_new = np.empty_like(z_flat)
        rows = onsager.shape[0]
        for i in range(rows):
            o = onsager[i]
            for j in range(bounds[i], bounds[i + 1]):
                value = y_flat[j] - mv[j] + o * z_flat[j]
                if damping > 0.0:
                    value = (1.0 - damping) * value + damping * z_flat[j]
                z_new[j] = value
        return z_new

    # -- in-seam CSR variants: the matvec fused into the phase loop ----
    #
    # Each trial's adjoint matvec scatters into one reusable (n,)
    # buffer (re-zeroed for free as the posterior pass consumes it),
    # and the forward matvec gathers per row straight into the
    # residual update — no (T*n,)/(T*m,) matvec intermediates ever
    # materialize. Standardization (centering c, per-trial scale) is
    # applied inline, so the whole iteration stays inside one loop.

    @numba.njit(cache=True)
    def csr_bayes_posterior(
        indptr, indices, data, sigma, z_flat, bounds, scales, c,
        sqrt_m, nm_ratio, sqrt_n, log_odds, exp_clip, tau_floor, damping,
    ):
        rows, n = sigma.shape
        sigma_new = np.empty_like(sigma)
        onsager = np.empty(rows, dtype=sigma.dtype)
        tau = np.empty(rows, dtype=sigma.dtype)
        step = np.empty(rows, dtype=sigma.dtype)
        rmv = np.zeros(n, dtype=np.float64)
        for i in range(rows):
            zsum = 0.0
            acc = 0.0
            base = i * n
            for r in range(bounds[i], bounds[i + 1]):
                zr = z_flat[r]
                zsum += zr
                acc += zr * zr
                for e in range(indptr[r], indptr[r + 1]):
                    rmv[indices[e] - base] += data[e] * zr
            t = math.sqrt(acc) / sqrt_m[i]
            if t < tau_floor:
                t = tau_floor
            tau[i] = t
            half_inv_t2 = 1.0 / (2.0 * t * t)
            centered = c * zsum
            scale = scales[i]
            deriv_sum = 0.0
            step_sum = 0.0
            for j in range(n):
                x = (rmv[j] - centered) / scale + sigma[i, j]
                rmv[j] = 0.0  # free per-trial reset of the scatter buffer
                e_ = log_odds + (1.0 - 2.0 * x) * half_inv_t2
                if e_ > exp_clip:
                    e_ = exp_clip
                elif e_ < -exp_clip:
                    e_ = -exp_clip
                eta = 1.0 / (1.0 + math.exp(e_))
                deriv_sum += eta * (1.0 - eta)
                value = eta
                if damping > 0.0:
                    value = (1.0 - damping) * eta + damping * sigma[i, j]
                d = value - sigma[i, j]
                step_sum += d * d
                sigma_new[i, j] = value
            onsager[i] = nm_ratio[i] * (deriv_sum / (t * t) / n)
            step[i] = math.sqrt(step_sum) / sqrt_n
        return sigma_new, onsager, tau, step

    @numba.njit(cache=True)
    def csr_soft_threshold_posterior(
        indptr, indices, data, sigma, z_flat, bounds, scales, c,
        sqrt_m, nm_ratio, sqrt_n, alpha, tau_floor, damping,
    ):
        rows, n = sigma.shape
        sigma_new = np.empty_like(sigma)
        onsager = np.empty(rows, dtype=sigma.dtype)
        tau = np.empty(rows, dtype=sigma.dtype)
        step = np.empty(rows, dtype=sigma.dtype)
        rmv = np.zeros(n, dtype=np.float64)
        for i in range(rows):
            zsum = 0.0
            acc = 0.0
            base = i * n
            for r in range(bounds[i], bounds[i + 1]):
                zr = z_flat[r]
                zsum += zr
                acc += zr * zr
                for e in range(indptr[r], indptr[r + 1]):
                    rmv[indices[e] - base] += data[e] * zr
            t = math.sqrt(acc) / sqrt_m[i]
            if t < tau_floor:
                t = tau_floor
            tau[i] = t
            threshold = alpha * t
            centered = c * zsum
            scale = scales[i]
            deriv_sum = 0.0
            step_sum = 0.0
            for j in range(n):
                x = (rmv[j] - centered) / scale + sigma[i, j]
                rmv[j] = 0.0
                mag = abs(x) - threshold
                if mag > 0.0:
                    value = mag if x > 0.0 else -mag
                    deriv_sum += 1.0
                else:
                    value = 0.0
                if damping > 0.0:
                    value = (1.0 - damping) * value + damping * sigma[i, j]
                d = value - sigma[i, j]
                step_sum += d * d
                sigma_new[i, j] = value
            onsager[i] = nm_ratio[i] * (deriv_sum / n)
            step[i] = math.sqrt(step_sum) / sqrt_n
        return sigma_new, onsager, tau, step

    @numba.njit(cache=True)
    def csr_residual(
        indptr, indices, data, sigma, y_flat, z_flat, onsager,
        bounds, scales, c, damping,
    ):
        rows, n = sigma.shape
        z_new = np.empty_like(z_flat)
        for i in range(rows):
            s = 0.0
            for j in range(n):
                s += sigma[i, j]
            centered = c * s
            scale = scales[i]
            o = onsager[i]
            base = i * n
            for r in range(bounds[i], bounds[i + 1]):
                acc = 0.0
                for e in range(indptr[r], indptr[r + 1]):
                    acc += data[e] * sigma[i, indices[e] - base]
                mv = (acc - centered) / scale
                value = y_flat[r] - mv + o * z_flat[r]
                if damping > 0.0:
                    value = (1.0 - damping) * value + damping * z_flat[r]
                z_new[r] = value
        return z_new

    _numba_functions = {
        "seg_sq_sums": seg_sq_sums,
        "bayes-bernoulli": bayes_posterior,
        "soft-threshold": soft_threshold_posterior,
        "residual": residual,
        "csr-bayes-bernoulli": csr_bayes_posterior,
        "csr-soft-threshold": csr_soft_threshold_posterior,
        "csr-residual": csr_residual,
    }
    return _numba_functions


class NumbaKernel(AMPKernel):
    """Fused backend: one jitted loop per phase over the segment bounds.

    The posterior phase inlines the denoiser from its flat
    :meth:`~repro.amp.denoisers.Denoiser.kernel_form` parameters;
    denoisers without a registered fused form fall back to the NumPy
    phase implementation (inherited), which keeps every denoiser
    correct under this backend. Fused accumulation is sequential (not
    NumPy's pairwise sums), so outputs are tolerance-equivalent to the
    reference kernel, not bit-identical.
    """

    def __init__(self, dtype=np.float64, name: str = "numba") -> None:
        super().__init__(dtype, name)
        self._functions = _get_numba_functions()

    def segment_square_sums(
        self, arr: np.ndarray, layout: StackLayout
    ) -> np.ndarray:
        return self._functions["seg_sq_sums"](
            np.ascontiguousarray(arr).reshape(-1), layout.bounds
        )

    def posterior_step(self, denoiser, rmv, sigma, z, layout, damping):
        form = denoiser.kernel_form()
        if form is None or form[0] not in self._functions:
            return super().posterior_step(
                denoiser, rmv, sigma, z, layout, damping
            )
        kind, params = form
        # The float32 exp clip never loosens a float64 run: the kernel
        # dtype decides, matching the NumPy denoiser's dtype rule.
        exp_clip = Denoiser.exp_clip_for(self.dtype)
        fused = self._functions[kind]
        args = params + (float(exp_clip),) if kind == "bayes-bernoulli" else params
        return fused(
            np.ascontiguousarray(rmv),
            np.ascontiguousarray(sigma),
            np.ascontiguousarray(z).reshape(-1),
            layout.bounds,
            layout.per_row(layout.sqrt_m),
            layout.per_row(layout.nm_ratio),
            float(layout.sqrt_n),
            *args,
            float(TAU_FLOOR),
            float(damping),
        )

    def residual_step(self, y, mv, z, onsager, layout, damping):
        z_new = self._functions["residual"](
            np.ascontiguousarray(y).reshape(-1),
            np.ascontiguousarray(mv),
            np.ascontiguousarray(z).reshape(-1),
            np.ascontiguousarray(onsager),
            layout.bounds,
            float(damping),
        )
        return z_new.reshape(y.shape)

    def adjoint_posterior(self, op, denoiser, sigma, z, layout, damping):
        form = denoiser.kernel_form()
        fused_kind = None if form is None else "csr-" + form[0]
        if (
            not isinstance(op, CSRStackOperator)
            or fused_kind not in self._functions
        ):
            # Generic operators (and unregistered denoisers) run the
            # scipy matvec plus the rmv-based fused posterior — the
            # exact pre-in-seam behavior.
            return super().adjoint_posterior(
                op, denoiser, sigma, z, layout, damping
            )
        kind, params = form
        exp_clip = Denoiser.exp_clip_for(self.dtype)
        args = (
            params + (float(exp_clip),)
            if kind == "bayes-bernoulli"
            else params
        )
        a = op.a
        return self._functions[fused_kind](
            a.indptr,
            a.indices,
            a.data,
            np.ascontiguousarray(sigma),
            np.ascontiguousarray(z).reshape(-1),
            layout.bounds,
            op.per_trial_scales(),
            float(op.c),
            layout.per_row(layout.sqrt_m),
            layout.per_row(layout.nm_ratio),
            float(layout.sqrt_n),
            *args,
            float(TAU_FLOOR),
            float(damping),
        )

    def forward_residual(self, op, y, sigma_new, z, onsager, layout, damping):
        if not isinstance(op, CSRStackOperator):
            return super().forward_residual(
                op, y, sigma_new, z, onsager, layout, damping
            )
        a = op.a
        z_new = self._functions["csr-residual"](
            a.indptr,
            a.indices,
            a.data,
            np.ascontiguousarray(sigma_new),
            np.ascontiguousarray(y).reshape(-1),
            np.ascontiguousarray(z).reshape(-1),
            np.ascontiguousarray(onsager),
            layout.bounds,
            op.per_trial_scales(),
            float(op.c),
            float(damping),
        )
        return z_new.reshape(y.shape)


# -- cupy backend --------------------------------------------------------

_CUPY_AVAILABLE: Optional[bool] = None


def cupy_available() -> bool:
    """Whether the optional ``cupy`` package is importable (cached)."""
    global _CUPY_AVAILABLE
    if _CUPY_AVAILABLE is None:
        try:
            import cupy  # noqa: F401

            _CUPY_AVAILABLE = True
        except ImportError:
            _CUPY_AVAILABLE = False
    return _CUPY_AVAILABLE


class CupyKernel(AMPKernel):
    """GPU backend: both phases as cupy array programs on a device CSR.

    The stacked matrix is copied to the device once per operator and
    cached on it (``_cupy_state``); the adjoint is materialized as a
    device CSR once (cupy's CSC matvec path is not competitive), which
    doubles device nnz storage but amortizes over every iteration.
    Inputs cross the host/device boundary at the phase seam only:
    each phase uploads the current state, runs the full pass —
    adjoint matvec, segment sums, inlined denoiser, damping, Onsager,
    step norm (or forward matvec + residual) — on the device, and
    returns host arrays, so the driver and decode stay untouched.

    Denoisers without a registered :meth:`~repro.amp.denoisers.
    Denoiser.kernel_form`, and generic (non-CSR) operators, fall back
    to the inherited NumPy phases — correct for every denoiser, same
    contract as :class:`NumbaKernel`. GPU reductions reorder sums, so
    this backend is tolerance-equivalent, never bit-identical.
    """

    def __init__(self, dtype=np.float64, name: str = "cupy") -> None:
        super().__init__(dtype, name)
        import cupy

        self._cp = cupy

    def _device_state(self, op: CSRStackOperator) -> Dict[str, object]:
        state = getattr(op, "_cupy_state", None)
        if state is not None:
            return state
        cp = self._cp
        from cupyx.scipy import sparse as cupy_sparse

        a = cupy_sparse.csr_matrix(
            (
                cp.asarray(op.a.data),
                cp.asarray(op.a.indices),
                cp.asarray(op.a.indptr),
            ),
            shape=op.a.shape,
        )
        state = {
            "a": a,
            "a_t": a.T.tocsr(),
            "scales": cp.asarray(op.per_trial_scales()),
        }
        if not op.uniform:
            state["m_per"] = cp.asarray(op.m_per)
            state["row_scale"] = cp.asarray(op.row_scale)
        op._cupy_state = state
        return state

    def adjoint_posterior(self, op, denoiser, sigma, z, layout, damping):
        form = denoiser.kernel_form()
        if (
            not isinstance(op, CSRStackOperator)
            or form is None
            or form[0] not in ("bayes-bernoulli", "soft-threshold")
        ):
            return super().adjoint_posterior(
                op, denoiser, sigma, z, layout, damping
            )
        cp = self._cp
        state = self._device_state(op)
        rows, n = layout.rows, layout.n
        z_d = cp.asarray(np.ascontiguousarray(z)).reshape(-1)
        sigma_d = cp.asarray(np.ascontiguousarray(sigma))
        if layout.uniform:
            z2 = z_d.reshape(rows, layout.m)
            zsum = z2.sum(axis=1)
            zsq = (z2 * z2).sum(axis=1)
        else:
            bounds_d = cp.asarray(layout.bounds)
            csum = cp.concatenate(
                (cp.zeros(1, dtype=z_d.dtype), cp.cumsum(z_d))
            )
            c2 = cp.concatenate(
                (cp.zeros(1, dtype=z_d.dtype), cp.cumsum(z_d * z_d))
            )
            zsum = csum[bounds_d[1:]] - csum[bounds_d[:-1]]
            zsq = c2[bounds_d[1:]] - c2[bounds_d[:-1]]
        sqrt_m_d = cp.asarray(layout.per_row(layout.sqrt_m))
        tau = cp.maximum(cp.sqrt(zsq) / sqrt_m_d, TAU_FLOOR)
        scales_d = state["scales"]
        rmv = state["a_t"] @ z_d
        r = (
            (rmv.reshape(rows, n) - (op.c * zsum)[:, None])
            / scales_d[:, None]
        ) + sigma_d
        kind, params = form
        tau_sq = tau * tau
        if kind == "bayes-bernoulli":
            (log_odds,) = params
            clip = float(Denoiser.exp_clip_for(self.dtype))
            expo = cp.clip(
                log_odds + (1.0 - 2.0 * r) / (2.0 * tau_sq)[:, None],
                -clip,
                clip,
            )
            value = 1.0 / (1.0 + cp.exp(expo))
            deriv = value * (1.0 - value) / tau_sq[:, None]
        else:
            (alpha,) = params
            thresh = (alpha * tau)[:, None]
            value = cp.sign(r) * cp.maximum(cp.abs(r) - thresh, 0.0)
            deriv = (cp.abs(r) > thresh).astype(sigma_d.dtype)
        if damping > 0.0:
            sigma_new = (1.0 - damping) * value + damping * sigma_d
        else:
            sigma_new = value
        nm_d = cp.asarray(layout.per_row(layout.nm_ratio))
        onsager = nm_d * deriv.mean(axis=1)
        diff = sigma_new - sigma_d
        step = cp.sqrt((diff * diff).sum(axis=1)) / layout.sqrt_n
        return (
            cp.asnumpy(sigma_new),
            cp.asnumpy(onsager),
            cp.asnumpy(tau),
            cp.asnumpy(step),
        )

    def forward_residual(self, op, y, sigma_new, z, onsager, layout, damping):
        if not isinstance(op, CSRStackOperator):
            return super().forward_residual(
                op, y, sigma_new, z, onsager, layout, damping
            )
        cp = self._cp
        state = self._device_state(op)
        rows, n = layout.rows, layout.n
        x_d = cp.asarray(np.ascontiguousarray(sigma_new)).reshape(-1)
        z_d = cp.asarray(np.ascontiguousarray(z))
        y_d = cp.asarray(np.ascontiguousarray(y))
        o_d = cp.asarray(np.ascontiguousarray(onsager))
        s = x_d.reshape(rows, n).sum(axis=1)
        mv = state["a"] @ x_d
        if layout.uniform:
            mv_std = (
                mv.reshape(rows, layout.m) - (op.c * s)[:, None]
            ) / op.scale
            z_new = y_d - mv_std + o_d[:, None] * z_d
        else:
            m_per_d = state["m_per"]
            mv_std = (mv - op.c * cp.repeat(s, m_per_d)) / state["row_scale"]
            z_new = y_d - mv_std + cp.repeat(o_d, m_per_d) * z_d
        if damping > 0.0:
            z_new = (1.0 - damping) * z_new + damping * z_d
        return cp.asnumpy(z_new).reshape(y.shape)


# -- registry ------------------------------------------------------------

#: accelerator families (package name -> warned flag): the fallback
#: warning fires once per missing package per process, not once per
#: resolve and not once per kernel-name spelling
_fallback_warned: Dict[str, bool] = {}


def _numpy_fallback(name: str, package: str) -> AMPKernel:
    """Graceful degrade when an accelerator backend is not installed."""
    substitute = "numpy32" if name.endswith("32") else "numpy"
    if not _fallback_warned.get(package):
        warnings.warn(
            f"AMP kernel {name!r} requested but {package} is not "
            f"installed; falling back to the matching-precision NumPy "
            f"reference kernel ({name} -> {substitute}: identical "
            f"semantics, no fused/accelerated passes). Install "
            f"{package} to enable the backend.",
            RuntimeWarning,
            stacklevel=3,
        )
        _fallback_warned[package] = True
    if substitute == "numpy32":
        return AMPKernel(np.float32, "numpy32")
    return AMPKernel(np.float64, "numpy")


def _make_kernel(name: str) -> AMPKernel:
    if name == "numpy":
        return AMPKernel(np.float64, "numpy")
    if name == "numpy32":
        return AMPKernel(np.float32, "numpy32")
    if name in ("numba", "numba32"):
        if not numba_available():
            return _numpy_fallback(name, "numba")
        dtype = np.float32 if name == "numba32" else np.float64
        return NumbaKernel(dtype, name)
    if name in ("cupy", "cupy32"):
        if not cupy_available():
            return _numpy_fallback(name, "cupy")
        dtype = np.float32 if name == "cupy32" else np.float64
        return CupyKernel(dtype, name)
    raise ValueError(f"unknown AMP kernel {name!r}; valid: {KERNELS}")


#: resolved-kernel cache: backends are stateless, one instance per name
_kernel_cache: Dict[str, AMPKernel] = {}


def resolve_kernel(kernel=None) -> AMPKernel:
    """Resolve a kernel request into an :class:`AMPKernel` instance.

    Precedence: an explicit :class:`AMPKernel` instance passes
    through; an explicit name string wins over the environment; then
    the :data:`REPRO_KERNEL` environment variable; then ``"numpy"``.
    A ``numba`` request without numba installed warns once and returns
    the NumPy kernel of the matching precision.
    """
    if isinstance(kernel, AMPKernel):
        return kernel
    name = kernel if kernel is not None else os.environ.get(KERNEL_ENV) or None
    if name is None:
        name = "numpy"
    if name not in _kernel_cache:
        _kernel_cache[name] = _make_kernel(str(name))
    return _kernel_cache[name]


__all__ = [
    "KERNEL_ENV",
    "KERNELS",
    "StackLayout",
    "MatvecOperator",
    "CSRStackOperator",
    "AMPKernel",
    "NumbaKernel",
    "CupyKernel",
    "numba_available",
    "cupy_available",
    "resolve_kernel",
]
