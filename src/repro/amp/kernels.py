"""The compute kernel of the AMP iteration.

Every AMP path in the library — standalone :func:`repro.amp.run_amp`,
the block-diagonal batched runner, and the heterogeneous-m
required-queries probe stacks — funnels through one iteration driver
(:func:`repro.amp.amp.iterate_amp`). This module holds the array work
underneath that driver, grouped into the two phase calls of
:class:`AMPKernel`:

``adjoint_posterior``
    the adjoint matvec plus everything before the forward matvec —
    ``rmv = A_s^T z``, the per-trial effective noise ``tau`` from
    residual segment sums, the denoiser value+derivative, damping, the
    Onsager coefficient and the step norm;
``forward_residual``
    the forward matvec plus the residual update
    ``z' = y - A_s sigma + onsager * z`` and damping.

The driver hands each phase the stack operator: a
:class:`CSRStackOperator` (the standardized block-diagonal stack as
raw :class:`CSRArrays`, whose products call scipy's compiled CSR / CSC
routines on the stored arrays — the ones ``@`` dispatches to, loaded
by :mod:`repro.core.sparsetools` without the sparse package — then the
pre-seam centering and scaling). A
:class:`StackLayout` value describes the trial stack: one flat
measurement vector segmented by per-trial ``row_sizes``. There is one
stack form; a stack of equal-m trials is one whose segments share a
length, and the passes then run on ``(T, m)`` reshaped views.

The kernel runs in float64 only: it performs exactly the
floating-point operations the pre-seam loops performed, in the same
order, so its outputs are **bit-identical by construction** to the
pre-refactor implementation (pinned against captured goldens in
``tests/test_kernels.py``). It reaches them through as few Python
calls as it can: bare ufuncs and reductions, in-place passes, and the
sparse products without scipy's ``@`` dispatch. :data:`AMP_KERNEL` is
the one instance every AMP path runs on.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.amp.denoisers import TAU_FLOOR, Denoiser


# -- stack layout --------------------------------------------------------


def _common_length(row_sizes: np.ndarray) -> Optional[int]:
    """The one segment length of a stack, or ``None`` when lengths differ."""
    if row_sizes.size and (row_sizes == row_sizes[0]).all():
        return int(row_sizes[0])
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

    A stack is one flat concatenation of the per-trial measurement
    vectors, segmented by per-trial ``row_sizes``. The kernel reads
    per-trial standardization scalars — ``sqrt_m``, ``n/m`` — from the
    layout. When every segment has one length (``seg_len``, a fixed-m
    sweep cell or a one-trial ``run_amp``), measurement-side passes
    work on ``(rows, seg_len)`` reshaped views; otherwise they go
    segment by segment. Both give every trial the same bits.

    The stored scalars are exactly the values the pre-seam loops
    computed inline (``np.sqrt(m_cur.astype(float64))``,
    ``n / m_cur``), so layout-mediated arithmetic is bit-identical to
    the originals.
    """

    def __init__(self, n: int, row_sizes: np.ndarray) -> None:
        m_cur = np.asarray(row_sizes, dtype=np.int64)
        self.rows = m_cur.size
        self.n = n
        self.m_cur = m_cur
        self.sqrt_m = np.sqrt(m_cur.astype(np.float64))
        self.nm_ratio = n / m_cur
        self.sqrt_n = np.sqrt(n)
        # np.mean's divisor: the intp count, which its float64 loop
        # converts exactly; a float64 ``n`` is the same divisor.
        self.n_items = np.float64(n)
        self.seg_len = _common_length(m_cur)
        self._bounds: Optional[np.ndarray] = None

    @property
    def bounds(self) -> np.ndarray:
        """Segment boundaries ``[0, m_0, m_0+m_1, ...]``, built lazily.

        Only stacks of unequal segments read them: equal ones work on
        ``(rows, seg_len)`` views instead.
        """
        if self._bounds is None:
            bounds = np.empty(self.rows + 1, dtype=np.int64)
            bounds[0] = 0
            np.cumsum(self.m_cur, out=bounds[1:])
            self._bounds = bounds
        return self._bounds

    def rows_view(self, arr: np.ndarray) -> np.ndarray:
        """``(rows, seg_len)`` view of a flat measurement-side array."""
        return arr.reshape(self.rows, self.seg_len)

    def segment_sums(self, arr: np.ndarray) -> np.ndarray:
        """Per-trial sums of a measurement-side array (``y``/``z``).

        Equal-length segments reduce through one reshaped pairwise sum,
        others one segment at a time; both give each trial exactly the
        bits of its own ``segment.sum()``.
        """
        if self.seg_len is not None:
            return np.add.reduce(self.rows_view(arr), axis=1)
        return _ragged_sums(arr, self.bounds)

    def restrict(self, active: np.ndarray) -> "StackLayout":
        """Layout for the surviving rows after stack compaction."""
        layout = StackLayout(self.n, self.m_cur[active])
        # Slice (not recompute) the standardization vectors, exactly
        # like the pre-seam compaction did.
        layout.sqrt_m = self.sqrt_m[active]
        layout.nm_ratio = self.nm_ratio[active]
        return layout

    def compact_measure(self, arr: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Drop frozen rows from a measurement-side array (``y``/``z``)."""
        if self.seg_len is not None:
            return self.rows_view(arr)[active].reshape(-1)
        bounds = self.bounds
        return np.concatenate(
            [arr[bounds[i] : bounds[i + 1]] for i in np.flatnonzero(active)]
        )

    def restore_rows(
        self, dst: np.ndarray, src: np.ndarray, inactive: np.ndarray
    ) -> None:
        """Copy frozen rows of a measurement-side array back into ``dst``."""
        if self.seg_len is not None:
            self.rows_view(dst)[inactive] = self.rows_view(src)[inactive]
            return
        bounds = self.bounds
        for i in np.flatnonzero(inactive):
            dst[bounds[i] : bounds[i + 1]] = src[bounds[i] : bounds[i + 1]]


# -- stack operators -----------------------------------------------------


class CSRArrays(NamedTuple):
    """A CSR matrix as its raw arrays, the form the sparse products read.

    ``indptr`` and ``indices`` share one integer dtype, ``data`` is
    float64 and ``shape`` is ``(rows, cols)``: exactly the arrays a
    scipy ``csr_matrix`` would store, without scipy.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    @property
    def nnz(self) -> int:
        """Stored entries, as scipy counts them."""
        return int(self.indptr[-1])


class CSRStackOperator:
    """Standardized block-diagonal trial stack in raw CSR form.

    Carries everything the kernel needs to apply the standardized
    forward map ``x -> (A x - c s_t) / scale_t`` and its adjoint
    itself: the stacked raw adjacency ``a`` (the :class:`CSRArrays`
    of the column-shifted block-diagonal stack, shape
    ``(sum(m_t), T*n)``), the centering constant ``c``, the per-trial
    row counts ``m_per`` and standardization ``scales``.

    :meth:`matvec` / :meth:`rmatvec` are the reference
    implementations. The raw products call scipy's compiled
    ``csr_matvec`` / ``csc_matvec`` (:mod:`repro.core.sparsetools`) on
    the stored arrays — the routines ``a @ x`` and ``a.T @ z`` end up
    in for a scipy matrix over the same arrays — so they are the same
    sequential per-row sums without scipy's per-call dispatch.
    Centering and scaling follow per element, in the pre-seam order
    (for ``T = 1`` exactly the standalone ``run_amp`` closures), on
    ``(T, m)`` views when every trial has one ``m``. That keeps the
    kernel's in-seam matvec pinned to the captured goldens.
    """

    def __init__(
        self,
        a: CSRArrays,
        *,
        n: int,
        c: float,
        m_per: np.ndarray,
        scales: np.ndarray,
    ) -> None:
        # Imported here, not at module level, to keep the extension off
        # ``import repro``.
        from repro.core import sparsetools

        self._csr_matvec = sparsetools.csr_matvec
        self._csc_matvec = sparsetools.csc_matvec
        # The compiled products index the arrays without bounds checks.
        if a.indptr.size != a.shape[0] + 1 or a.indices.size != a.data.size:
            raise ValueError(
                f"CSR arrays do not fit shape {a.shape}: indptr has "
                f"{a.indptr.size} entries, indices {a.indices.size}, "
                f"data {a.data.size}"
            )
        self.a = a
        self.n = int(n)
        self.trials = a.shape[1] // self.n
        self.c = c
        self.layout = StackLayout(self.n, m_per)
        self.scales_col = np.asarray(scales, dtype=np.float64)[:, None]
        if self.layout.seg_len is None:
            self.row_scale = np.repeat(self.scales_col[:, 0], self.layout.m_cur)

    def _product(self, routine, rows: int, cols: int, v: np.ndarray) -> np.ndarray:
        """``routine`` applied to the stored arrays, as scipy's ``@`` does.

        The routine accumulates into a zeroed output of the stack's
        data dtype, as ``@`` does for a float64 stack; a stack of any
        narrower dtype raises ``ValueError`` on the float64 vectors of
        an AMP run instead of silently changing precision.
        """
        a = self.a
        out = np.zeros(rows, dtype=a.data.dtype)
        routine(rows, cols, a.indptr, a.indices, a.data, v, out)
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        rows, cols = self.a.shape
        out = self._product(self._csr_matvec, rows, cols, x)
        centering = self.c * np.add.reduce(
            x.reshape(self.trials, self.n), axis=1
        )
        if self.layout.seg_len is not None:
            view = self.layout.rows_view(out)
            view -= centering[:, None]
            view /= self.scales_col
        else:
            out -= np.repeat(centering, self.layout.m_cur)
            out /= self.row_scale
        return out

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        rows, cols = self.a.shape
        # The transpose is the CSC reading of the same arrays.
        out = self._product(self._csc_matvec, cols, rows, z)
        s = self.layout.segment_sums(z)
        # Every trial has n columns: broadcast the per-trial
        # centering/scale on a (T, n) view, the same per-element
        # arithmetic as a flat np.repeat.
        view = out.reshape(self.trials, self.n)
        view -= (self.c * s)[:, None]
        view /= self.scales_col
        return out


# -- kernel interface ----------------------------------------------------


class AMPKernel:
    """The AMP compute kernel; :data:`AMP_KERNEL` is its one instance.

    This class *is* the pre-refactor implementation: each method
    performs the identical floating-point operations, in the identical
    order, that the pre-seam ``iterate_amp`` loops previously
    inlined — which is what makes the kernel bit-identical by
    construction. Only the calls that reach them are leaner: ufuncs
    and their reductions (``np.add.reduce``, in-place passes) instead
    of the ``np.sum`` / ``np.mean`` / ``np.clip`` wrappers, which cost
    several times a 1000-element pass at the sizes the decode service
    runs.
    """

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

    def residual_norms(self, z: np.ndarray, layout: StackLayout) -> np.ndarray:
        """Per-trial ``||z||_2`` (history tracking)."""
        return np.sqrt(self.segment_square_sums(z, layout))

    def adjoint_posterior(
        self,
        op,
        denoiser: Denoiser,
        sigma: np.ndarray,
        z: np.ndarray,
        layout: StackLayout,
        damping: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The adjoint matvec and everything before the forward one.

        Applies the operator's ``rmatvec`` to the residual stack ``z``,
        then returns ``(sigma_new, onsager, tau, step)``: the (damped)
        denoised iterate, the Onsager coefficient for the coming
        residual update, the per-trial effective noise level, and the
        per-trial step norm ``||sigma' - sigma|| / sqrt(n)``.
        ``damping`` is the effective factor for *this* iteration (the
        driver passes 0 on the first one).
        """
        rmv = op.rmatvec(z.reshape(-1))
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
        """The forward matvec and the Onsager-corrected residual update."""
        z_new = y - op.matvec(sigma_new.reshape(-1))
        if layout.seg_len is not None:
            view = layout.rows_view(z_new)
            view += onsager[:, None] * layout.rows_view(z)
        else:
            z_new += np.repeat(onsager, layout.m_cur) * z
        if damping > 0.0:
            z_new = (1.0 - damping) * z_new + damping * z
        return z_new


#: the kernel instance :func:`repro.amp.amp.iterate_amp` runs on
AMP_KERNEL = AMPKernel()


__all__ = [
    "StackLayout",
    "CSRArrays",
    "CSRStackOperator",
    "AMPKernel",
    "AMP_KERNEL",
]
