"""Pilot-observation model for one-bit MIMO channel estimation.

The unquantized observation of a block of tau pilot symbols over an
N_R x N_T channel H is

    B = H S^T + N,   S: tau x N_T pilot matrix,

which column-stacks to b = A h + n with A = kron(S, I_NR), h = vec(H) and
n = vec(N).  The channel is zero-mean circular complex Gaussian with
covariance sigma_ch, the noise i.i.d. CN(0, noise_var).  Everything
downstream (quantization, orthant integrals, estimators) works off the
second-order statistics bundled in :class:`SecondOrderStats`.  Every number
and array a caller hands the package passes one rule here: check_number,
or number_array, which refuses complex entries where the math is real.

scipy.special (ndtri) is imported inside sample_realizations, the one
function here that calls it, so only sampling loads it from this module.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

# Relative eigenvalue floor below which a nominally PD matrix is treated as
# singular (min/max eigenvalue ratio guard for inversions).
EIG_RATIO_FLOOR = 1e-12

# Relative tolerance for symmetry / Hermitian-ness checks on inputs.
SYMMETRY_TOL = 1e-12

# Correlation magnitude at or below which two coordinates of the sign-folded
# covariance S do not couple.  The orthant layer splits S into blocks across
# uncoupled coordinates, and the optimality verdict reads the same blocks:
# a PD matrix and its inverse share their coupled blocks, so the paper's
# condition on the precision matrix C = S^{-1}/2 (at most one coupling per
# row) is the condition that no block of S exceeds two coordinates.
COUPLING_TOL = 1e-10

# How sample_realizations turns (seed, trial) into normals; sweeps echo it in
# their metadata.  w = 2 * (channel_len + obs_len) words per trial.
STREAM_CONTRACT = (
    "philox4x64 key=(seed,0), normal=ndtri(((word>>12)+0.5)*2^-52), "
    "trial t at words [t*w,(t+1)*w)"
)


def _is_number(value, kind):
    return isinstance(value, kind) and not isinstance(value, bool)


def check_number(value, name, integral=False, low=None, high=math.inf):
    """The package's one number rule: value, a Python int if integral else a
    float, once it is a real number (an integer if integral), never a bool or
    a string, and in [low, high) when low is given; else DomainError."""
    if not _is_number(value, numbers.Integral if integral else numbers.Real):
        what = "an integer" if integral else "a number"
        raise DomainError(f"{name} must be {what}, got {value!r}")
    if low is not None and not low <= value < high:
        bound = "2**64" if high == 2**64 else high
        raise DomainError(f"{name} must lie in [{low}, {bound}), got {value!r}")
    return int(value) if integral else float(value)


def number_array(value, name, dtype=float, ndim=None):
    """The package's one array rule: value as a float64 array, or complex128
    if dtype is complex, once every entry is a number, never a bool or a
    string, and a real one unless dtype is complex, as check_number refuses
    1+0j; else DomainError.  A numeric ndarray is judged by its dtype, all
    else entry by entry.  With ndim, the array must also be non-empty with
    ndim axes (else DimensionError) and finite."""
    kinds = "iufc" if dtype is complex else "iuf"
    if not (isinstance(value, np.ndarray) and value.dtype.kind in kinds):
        kind = numbers.Complex if dtype is complex else numbers.Real
        for x in np.ravel(np.array(value, dtype=object)):
            if not _is_number(x, kind):
                raise DomainError(f"{name} entries must be numbers, got {x!r}")
    m = np.asarray(value, dtype=dtype)
    if ndim is not None:
        if m.ndim != ndim or m.size == 0:
            what = f"{ndim}-d vector" if ndim == 1 else f"{ndim}-d array"
            raise DimensionError(f"{name} must be a non-empty {what}, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError(f"{name} contains NaN or infinite entries")
    return m


def check_hermitian(m, name, dtype=float, size=None):
    """Validate that m passes number_array as a dtype matrix, is square (size
    x size, when size is given) and Hermitian (symmetric, when real) within
    SYMMETRY_TOL relative to its largest entry, and return the exactly
    Hermitian average (m + m^H)/2, real unless dtype is complex."""
    m = number_array(m, name, dtype, ndim=2)
    n = m.shape[0] if size is None else size
    if m.shape != (n, n):
        raise DimensionError(f"{name} has shape {m.shape}, expected ({n}, {n})")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > SYMMETRY_TOL * scale:
        raise DomainError(f"{name} is not Hermitian within relative tolerance {SYMMETRY_TOL}")
    return (m + m.conj().T) / 2.0


def below_eig_floor(w):
    """True when ascending eigenvalues w mark their matrix as not
    numerically positive definite (min/max ratio at or below
    EIG_RATIO_FLOOR)."""
    return w[-1] <= 0.0 or w[0] <= EIG_RATIO_FLOOR * w[-1]


def hermitian_inverse(m, name="matrix"):
    """Invert a Hermitian PD matrix through its eigendecomposition.

    Raises SingularMatrixError when the min/max eigenvalue ratio falls
    below EIG_RATIO_FLOOR, instead of returning garbage.
    """
    w, v = np.linalg.eigh(m)
    if below_eig_floor(w):
        raise SingularMatrixError(
            f"{name} is numerically singular: eigenvalue ratio "
            f"{w[0] / w[-1] if w[-1] > 0 else float('-inf'):.3e} below {EIG_RATIO_FLOOR:g}"
        )
    inv = (v / w) @ v.conj().T
    return (inv + inv.conj().T) / 2.0


@dataclass(frozen=True)
class SystemDims:
    """Antenna counts and pilot length; sanity checks on construction."""

    n_tx: int
    n_rx: int
    n_pilots: int

    def __post_init__(self):
        for fname in ("n_tx", "n_rx", "n_pilots"):
            val = getattr(self, fname)
            if not isinstance(val, (int, np.integer)) or isinstance(val, bool) or val < 1:
                raise DimensionError(f"{fname} must be a positive integer, got {val!r}")

    @property
    def obs_len(self):
        """Length of the stacked observation b (= n_pilots * n_rx)."""
        return self.n_pilots * self.n_rx

    @property
    def channel_len(self):
        """Length of the stacked channel h (= n_tx * n_rx)."""
        return self.n_tx * self.n_rx


@dataclass(frozen=True)
class SystemModel:
    """Fixed pilot configuration: dims, pilot matrix, and the stacked
    observation operator A = kron(pilots, I_nrx)."""

    dims: SystemDims
    pilots: np.ndarray
    kron_matrix: np.ndarray


def build_pilot_model(pilots, n_rx):
    """Build a SystemModel from a tau x N_T pilot matrix and a receive
    antenna count."""
    pilots = number_array(pilots, "pilots", complex, ndim=2)
    n_pilots, n_tx = pilots.shape
    dims = SystemDims(n_tx=n_tx, n_rx=n_rx, n_pilots=n_pilots)
    a = np.kron(pilots, np.eye(n_rx))
    return SystemModel(dims=dims, pilots=pilots, kron_matrix=a)


@dataclass(frozen=True)
class SecondOrderStats:
    """Second-order statistics of the unquantized observation.

    omega_b = A sigma_ch A^H + noise_var I is the observation covariance
    and omega_inv its inverse.
    """

    sigma_ch: np.ndarray
    noise_var: float
    omega_b: np.ndarray
    omega_inv: np.ndarray
    # Factor F with sigma_ch = F F^H, kept for sampling channel draws.
    sigma_factor: np.ndarray = field(repr=False)


def real_form(m):
    """Real 2n x 2n form [[Re m, -Im m], [Im m, Re m]] of a complex n x n
    matrix: twice the covariance of [Re b; Im b] for b ~ CN(0, m)."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _psd_factor(sigma, name):
    """Factor a Hermitian PSD matrix as F F^H, tolerating tiny negative
    rounding in the spectrum."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(sigma)
    floor = -SYMMETRY_TOL * max(w[-1], 1.0)
    if w[0] < floor:
        raise NotPositiveDefiniteError(
            f"{name} has negative eigenvalue {w[0]:.3e}; not positive semidefinite"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


def second_order_stats(model, sigma_ch, noise_var):
    """Assemble SecondOrderStats for a pilot model, channel covariance and
    noise variance.

    noise_var = 0 is allowed as long as A sigma_ch A^H stays invertible;
    otherwise SingularMatrixError is raised by the eigenvalue guard.
    """
    noise_var = check_number(noise_var, "noise_var", low=0.0)
    sigma_ch = check_hermitian(sigma_ch, "sigma_ch", complex, model.dims.channel_len)
    a = model.kron_matrix
    omega = a @ sigma_ch @ a.conj().T + noise_var * np.eye(model.dims.obs_len)
    omega = (omega + omega.conj().T) / 2.0
    omega_inv = hermitian_inverse(omega, "omega_b")
    factor = _psd_factor(sigma_ch, "sigma_ch")
    return SecondOrderStats(
        sigma_ch=sigma_ch,
        noise_var=noise_var,
        omega_b=omega,
        omega_inv=omega_inv,
        sigma_factor=factor,
    )


def _philox(seed, stream, word=0):
    """Philox4x64 bit generator keyed by the uint64 pair (seed, stream),
    positioned so that its next output is uint64 word `word` of the stream.

    A seed or stream that is not an integer in [0, 2**64) raises DomainError:
    truncating or folding it would hand two seeds one stream.  The key is an
    explicit uint64 array: numpy turns a list holding one value >= 2**63 and
    one below into float64, which rounds nearby seeds onto one key.
    """
    seed = check_number(seed, "seed", integral=True, low=0, high=2**64)
    stream = check_number(stream, "stream", integral=True, low=0, high=2**64)
    word = check_number(word, "stream position", integral=True, low=0)
    key = np.array([seed, stream], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    # Philox yields words in blocks of 4: skip whole blocks by counter, then
    # drop the words of the block that precede the position.
    bits.advance(word // 4)
    bits.random_raw(word % 4)
    return bits


def sample_realizations(stats, model, seed, n_samples, start_stream=0):
    """Draw n_samples realizations from one counter-based stream per seed.

    Returns (h, noise) arrays of shape (n_samples, channel_len) and
    (n_samples, obs_len); observe(model, h, noise) forms b = A h + n from
    them.  The stream is Philox4x64 keyed (seed, 0); trial
    t = start_stream + i owns its uint64 words [t*w, (t+1)*w), where
    w = 2 * (channel_len + obs_len), and each word becomes the standard
    normal ndtri(((word >> 12) + 0.5) * 2**-52).  Trial t is a function of
    (seed, t) alone, so any contiguous slice of trials reproduces exactly
    regardless of how the full run is split into batches.
    """
    # local: importing scipy.special costs more than most CLI calls compute
    from scipy.special import ndtri

    n_samples = check_number(n_samples, "n_samples", integral=True)
    if n_samples < 1:
        raise DimensionError(f"n_samples must be >= 1, got {n_samples}")
    nh = model.dims.channel_len
    nn = model.dims.obs_len
    width = 2 * (nh + nn)
    start_stream = check_number(start_stream, "start_stream", integral=True, low=0)
    raw = _philox(seed, 0, start_stream * width).random_raw((n_samples, width))
    # 52 bits, so k + 0.5 is exact in a double and u stays inside (0, 1);
    # with 53 bits the top word would round to u = 1 and map to +inf.
    np.right_shift(raw, 12, out=raw)
    z = raw.view(np.float64)
    np.add(raw, 0.5, out=z)
    np.multiply(z, 2.0**-52, out=z)
    ndtri(z, out=z)
    h_white = (z[:, :nh] + 1j * z[:, nh : 2 * nh]) / np.sqrt(2.0)
    noise = (z[:, 2 * nh : 2 * nh + nn] + 1j * z[:, 2 * nh + nn :]) * np.sqrt(
        stats.noise_var / 2.0
    )
    return _rows_times(h_white, stats.sigma_factor), noise


def _rows_times(x, m):
    """x @ m.T for a batch of rows x.  numpy multiplies a single row by a
    matrix-vector kernel whose last bit can differ from the batched product,
    so a lone row goes in as two equal rows and leaves as one."""
    if len(x) == 1:
        return (np.repeat(x, 2, axis=0) @ m.T)[:1]
    return x @ m.T


def observe(model, h, noise):
    """Unquantized observations b = A h + n, one row per row of the channel
    draws h and noise draws n; row i is the same for any batch holding it."""
    return _rows_times(h, model.kron_matrix) + noise
