"""Fractional power encoding (FPE) of circular variables.

Extension beyond the paper.  Where circular-hypervectors *construct* a
discrete basis set whose Hamming distances follow the circle, FPE encodes
an angle directly: draw one integer frequency ``k_j`` per dimension and
represent ``θ`` by the phasor vector

``z(θ)_j = exp(i · k_j · θ)``.

Integer frequencies make the encoding exactly 2π-periodic, and the
expected similarity between two angles is the *kernel*

``K(Δ) = E[cos(k Δ)] = Σ_k p(k) cos(k Δ)``,

i.e. the frequency distribution is a design knob for the similarity
kernel — wider frequency ranges give narrower (more local) kernels.  This
directly addresses the bandwidth limitation of circular-hypervectors
(measured by ``benchmarks/bench_extension_fpe.py``): their walk-law kernel is fixed and global,
so signal harmonics above the first are attenuated; FPE with
``max_frequency ≥ h`` captures an ``h``-th-harmonic signal.

:class:`FPERegressor` implements band-limited harmonic regression on top
of the encoding: training accumulates ``S = Σ_i z(θ_i)·(y_i − ȳ)``;
prediction projects the query phasor onto it,

``ŷ(θ) = ȳ + 2·K_max · Re⟨S, z(θ)*⟩ / (d · n)``.

Under (approximately) uniform sampling the projection converges to the
band-limited part of the target: for frequency magnitudes uniform on
``{1 … K_max}``, convolving the kernel with ``cos(hθ)`` returns
``cos(hθ) / (2 K_max)`` for every harmonic ``h ≤ K_max`` and 0 above —
hence the ``2·K_max`` rescale reconstructs any signal whose spectrum the
frequency draw covers.  Everything stays O(d) per query and fully
incremental.
"""

from __future__ import annotations

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..exceptions import EmptyModelError, InvalidParameterError

__all__ = ["FractionalPowerEncoding", "FPERegressor"]


class FractionalPowerEncoding:
    """Phasor encoder for angles with an explicit similarity kernel.

    Parameters
    ----------
    dim:
        Number of phasor dimensions (random frequencies).
    max_frequency:
        Frequencies are drawn uniformly from ``{−K, …, K} \\ {0}`` with
        ``K = max_frequency``; the kernel is then approximately the
        Dirichlet-style average ``(1/K) Σ_{k=1..K} cos(kΔ)``, whose main
        lobe narrows as ``K`` grows.
    period:
        Period of the encoded variable (default ``2π``); inputs are
        scaled onto the circle first.
    seed:
        Randomness for the frequency draw.
    """

    def __init__(
        self,
        dim: int,
        max_frequency: int = 8,
        period: float = 2.0 * np.pi,
        seed: SeedLike = None,
    ) -> None:
        if dim < 1:
            raise InvalidParameterError(f"dim must be positive, got {dim}")
        if max_frequency < 1:
            raise InvalidParameterError(
                f"max_frequency must be at least 1, got {max_frequency}"
            )
        if period <= 0 or not np.isfinite(period):
            raise InvalidParameterError(f"period must be positive, got {period}")
        self._dim = int(dim)
        self.max_frequency = int(max_frequency)
        self.period = float(period)
        rng = ensure_rng(seed)
        magnitudes = rng.integers(1, self.max_frequency + 1, size=self._dim)
        signs = rng.choice((-1, 1), size=self._dim)
        self._frequencies = (magnitudes * signs).astype(np.int64)

    @property
    def dim(self) -> int:
        """Number of phasor dimensions."""
        return self._dim

    @property
    def frequencies(self) -> np.ndarray:
        """The integer frequency of each dimension."""
        return self._frequencies

    def encode(self, values: np.ndarray | float) -> np.ndarray:
        """Encode value(s) to unit phasor vectors.

        A scalar yields ``(dim,)``; an ``(n,)`` array yields ``(n, dim)``.
        The encoding is exactly periodic: ``encode(x) == encode(x + period)``
        up to floating-point phase wrap.
        """
        arr = np.asarray(values, dtype=np.float64)
        theta = arr / self.period * (2.0 * np.pi)
        phase = np.multiply.outer(theta, self._frequencies.astype(np.float64))
        return np.exp(1j * phase)

    def kernel(self, delta: np.ndarray | float) -> np.ndarray:
        """Theoretical similarity kernel ``K(Δ) = E[cos(kΔ)]``.

        ``delta`` is a separation in input units.  The empirical phasor
        similarity between ``encode(x)`` and ``encode(x + delta)``
        concentrates on this value as ``dim`` grows.
        """
        arr = np.asarray(delta, dtype=np.float64) / self.period * (2.0 * np.pi)
        ks = np.arange(1, self.max_frequency + 1, dtype=np.float64)
        return np.cos(np.multiply.outer(arr, ks)).mean(axis=-1)

    def similarity(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Empirical cosine similarity of two encodings, in ``[−1, 1]``."""
        return np.real(np.asarray(a) * np.conjugate(np.asarray(b))).mean(axis=-1)


class FPERegressor:
    """Band-limited harmonic regression over a fractional power encoding.

    Training keeps the label-weighted phasor accumulator
    ``S = Σ_i z(θ_i)(y_i − ȳ)``; prediction rescales its projection onto
    the query encoding (see the module docstring for the derivation).
    The model size is one complex vector of dimension ``d`` regardless of
    the number of training samples, and fitting is incremental.
    """

    def __init__(self, encoder: FractionalPowerEncoding) -> None:
        self.encoder = encoder
        self._signal = np.zeros(encoder.dim, dtype=np.complex128)
        self._encoded_sum = np.zeros(encoder.dim, dtype=np.complex128)
        self._label_sum = 0.0
        self._count = 0

    @property
    def num_samples(self) -> int:
        """Training samples accumulated so far."""
        return self._count

    @property
    def label_mean(self) -> float:
        """Mean training label (the regression's DC component)."""
        if self._count == 0:
            raise EmptyModelError("regressor has no training data")
        return self._label_sum / self._count

    def fit(self, x: np.ndarray, y: np.ndarray) -> "FPERegressor":
        """Accumulate samples (incremental; callable repeatedly).

        The signal accumulator stores ``Σ z(θ_i)·y_i`` and ``Σ z(θ_i)``
        separately so the running mean can be removed exactly at predict
        time, keeping repeated ``fit`` calls equivalent to one big call.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape != y.shape or x.size == 0:
            raise InvalidParameterError("x and y must be equal-length, non-empty")
        encoded = self.encoder.encode(x)
        self._signal += (encoded * y[:, None]).sum(axis=0)
        self._encoded_sum += encoded.sum(axis=0)
        self._label_sum += float(y.sum())
        self._count += x.size
        return self

    def predict(self, x: np.ndarray | float) -> np.ndarray:
        """Band-limited predictions for angle(s) ``x``."""
        if self._count == 0:
            raise EmptyModelError("regressor has no training data")
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 0
        queries = self.encoder.encode(np.atleast_1d(arr))
        mean = self.label_mean
        centred = self._signal - mean * self._encoded_sum
        projection = np.real(queries @ np.conjugate(centred)) / self.encoder.dim
        scale = 2.0 * self.encoder.max_frequency / self._count
        out = mean + scale * projection
        return out[0] if single else out

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error on ``(x, y)``."""
        y = np.asarray(y, dtype=np.float64).ravel()
        residual = y - np.atleast_1d(self.predict(x))
        return float(np.mean(residual**2))
