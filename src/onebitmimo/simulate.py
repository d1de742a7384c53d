"""Monte Carlo MSE-versus-SNR sweeps.

The harness fixes the noise variance at 1 and solves the pilot energy from
the target SNR through snr = trace(S S^H) / (tau N_T noise_var), so the
SNR axis of a sweep is exact by construction; the per-point pilot energy
is echoed in the result metadata.  Trial t draws its normals from words
[t*w, (t+1)*w) of one counter-based Philox stream keyed by the seed (see
model.sample_realizations), and per-trial squared errors are summed
exactly as each chunk is produced and rounded once at the end (_ExactSum),
which gives the correctly rounded sum in any order; results are
bit-identical for any batching of the work.

Neither the channel draw h nor the noise draw n depends on the SNR, so all
points of a sweep share each trial's h and n (common random numbers): each
chunk of trials is drawn once, and only the observation b = A h + n is
formed per point and quantized there in one sign pass.  Each distinct
evaluator of a point runs once per chunk: at an exactly linear point mmse
and blmmse are one linear map, evaluated once, and both rows are read from
one pair of exact sums.  A sweep keeps two exact sums per (point,
evaluator) and no per-trial values, so its memory does not grow with the
trial count.
"""

import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .channel_models import bessel_tx_covariance, exponential_covariance
from .estimators import (
    _sign_tables,
    blmmse_operator,
    mmse_estimate,  # not called here: perfbench/tracing.py wraps simulate.mmse_estimate
    mmse_linear_operator,
    simo3_closed_batch,  # not called here: perfbench/tracing.py wraps simulate.simo3_closed_batch
    tx_covariance,
)
from .exceptions import DimensionError, DomainError
from .model import (
    STREAM_CONTRACT,
    SystemDims,
    build_pilot_model,
    check_count,
    check_hermitian,
    check_number,
    number_array,
    observe,
    sample_realizations,
    second_order_stats,
)
from .orthant import DEFAULT_REL_TOL, check_rel_tol
from .quantizer import sgn

NOISE_VAR = 1.0

ESTIMATOR_NAMES = ("mmse", "blmmse")

_CHUNK = 8192


class _ExactSum:
    """Running sum of float64 arrays, exact until it is read.

    np.frexp writes a finite double as q * 2**(e - 53) with q an integer of
    at most 53 bits and e >= -1073, so it is a whole number of units of
    2**-1126; the sum is one Python int in those units.  value() rounds it
    once by int / int true division, which is correctly rounded, so it is
    the double math.fsum returns over the same values, whatever their order
    or chunking.  As for fsum, a non-finite value makes the sum inf or nan.
    """

    __slots__ = ("_units", "_special")

    def __init__(self):
        self._units = 0
        self._special = 0.0  # sum of the non-finite values added, 0.0 while none is

    def add(self, v):
        """Add the values of a 1-D float64 array of fewer than 2**26 values."""
        finite = np.isfinite(v)
        if not finite.all():
            for x in v[~finite]:
                self._special += float(x)
            v = v[finite]
            if v.size == 0:
                return
        m, e = np.frexp(v)
        low = int(e.min())
        e -= low
        # q's high 27 and low 26 bits (the latter as a fraction of 2**26),
        # each summed per exponent: fewer than 2**26 terms keep every bin
        # below 2**53 units, so the float sums are exact
        m *= 2.0**27
        hi = np.floor(m)
        hi_sums = np.bincount(e, weights=hi)[::-1].astype(np.int64)
        m -= hi
        lo_sums = (np.bincount(e, weights=m)[::-1] * 2.0**26).astype(np.int64)
        units = 0
        # Horner from the top exponent down; a memoryview iterates Python ints
        for h, lo in zip(memoryview(hi_sums), memoryview(lo_sums)):
            units = (units << 1) + (h << 26) + lo
        self._units += units << (low + 1073)

    def value(self):
        """The sum of every value added, rounded once."""
        if self._special:
            return self._special
        return self._units / (1 << 1126)


# The parameters each covariance and pilot kind reads, with their defaults
# (None: a matrix the kind needs, or an optional imaginary part).  A spec may
# set "kind" and these keys only.
COVARIANCE_PARAMS = {
    "identity": {},
    "exponential": {"rho": 0.0},
    "bessel-tx": {"delta": 0.5, "theta": np.pi / 6.0, "gamma_max": 0.1},
    "custom": {"real": None, "imag": None},
}
PILOT_PARAMS = {
    "scalar": {},
    "scaled-unitary": {},
    "eigenbasis": {},
    "explicit": {"real": None, "imag": None},
}


def snr_from_db(snr_db):
    """Linear SNR of snr_db decibels; DomainError unless finite and positive."""
    try:
        snr = 10.0 ** (check_number(snr_db, "snr_db") / 10.0)
    except OverflowError:
        snr = math.inf
    if not 0.0 < snr < math.inf:
        raise DomainError(f"snr_db {snr_db!r} has no finite positive linear value")
    return snr


@dataclass(frozen=True)
class SweepConfig:
    """Everything one MSE sweep depends on, every field checked on
    construction, whether it comes from a YAML file or from Python.

    covariance and pilots are plain {"kind": ..., parameters...} mappings;
    see build_covariance and build_pilots for the accepted kinds, and
    COVARIANCE_PARAMS and PILOT_PARAMS for the parameters each reads.
    snr_grid_db and estimators are lists or tuples, held as tuples.
    """

    dims: SystemDims
    covariance: dict
    pilots: dict
    snr_grid_db: tuple
    estimators: tuple
    trials: int
    seed: int
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self):
        if not isinstance(self.dims, SystemDims):
            raise DomainError(f"dims must be a SystemDims, got {self.dims!r}")
        for key in ("snr_grid_db", "estimators"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise DomainError(f"{key} must be a list or tuple, got {getattr(self, key)!r}")
        if len(self.snr_grid_db) == 0:
            raise DomainError("snr_grid_db must not be empty")
        number_array(self.snr_grid_db, "snr_grid_db")
        for snr_db in self.snr_grid_db:
            snr_from_db(snr_db)
        if len(set(self.snr_grid_db)) != len(self.snr_grid_db):
            raise DomainError("snr_grid_db contains duplicate points")
        _spec_params(self.covariance, COVARIANCE_PARAMS, "covariance")
        _spec_params(self.pilots, PILOT_PARAMS, "pilot")
        if not self.estimators:
            raise DomainError("estimators must not be empty")
        # names are checked before the duplicate test, which hashes them
        for name in self.estimators:
            if not isinstance(name, str) or name not in ESTIMATOR_NAMES:
                raise DomainError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")
        if len(set(self.estimators)) != len(self.estimators):
            raise DomainError(f"estimators contains duplicate names: {list(self.estimators)}")
        check_count(self.trials, "trials")
        # the seed keys a Philox4x64 stream with one uint64 word
        check_number(self.seed, "seed", integral=True, low=0, high=2**64)
        check_rel_tol(self.rel_tol)
        # the config holds its own containers: tuples, and copies of the specs
        for key, kind in (("snr_grid_db", tuple), ("estimators", tuple),
                          ("covariance", dict), ("pilots", dict)):
            object.__setattr__(self, key, kind(getattr(self, key)))


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    estimator: str
    mse: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class MseSweepResult:
    rows: list
    metadata: dict


def _spec_params(spec, kinds, what):
    """(kind, parameters) of a {"kind": ..., ...} spec, the parameters the
    spec leaves out set to their defaults in kinds[kind].

    DomainError for a spec that is not a mapping, a kind missing from
    kinds, a key its kind does not read, a matrix kind with no 'real', or
    a value off the number rules: a scalar parameter must pass check_number
    and a matrix one (default None) number_array, which it comes back as.
    """
    if not isinstance(spec, Mapping):
        raise DomainError(f"{what} spec must be a mapping, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise DomainError(f"unknown {what} kind {kind!r}; choose from {sorted(kinds)}")
    params = {k: v for k, v in spec.items() if k != "kind"}
    unread = sorted(set(params) - set(kinds[kind]))
    if unread:
        raise DomainError(f"{what} kind {kind!r} does not read keys {unread}")
    for key, value in params.items():
        if kinds[kind][key] is not None:
            check_number(value, f"{what} parameter {key!r}")
        elif value is not None:
            params[key] = number_array(value, f"{what} parameter {key!r}")
    if "real" in kinds[kind] and params.get("real") is None:
        raise DomainError("missing 'real' matrix")
    return kind, {**kinds[kind], **params}


def _parse_complex_matrix(params):
    real = params["real"]
    imag = np.zeros_like(real) if params["imag"] is None else params["imag"]
    if imag.shape != real.shape:
        raise DimensionError(
            f"'imag' shape {imag.shape} does not match 'real' shape {real.shape}"
        )
    return real + 1j * imag


def build_covariance(spec, dims):
    """Materialize the stacked-channel covariance for a covariance spec.

    kinds: identity; exponential (receive correlation, single-input only,
    parameter rho); bessel-tx (transmit correlation kron identity,
    parameters delta, theta, gamma_max); custom (explicit real/imag
    matrix over the full stacked channel).
    """
    kind, params = _spec_params(spec, COVARIANCE_PARAMS, "covariance")
    if kind == "identity":
        return np.eye(dims.channel_len, dtype=complex)
    if kind == "exponential":
        if dims.n_tx != 1:
            raise DomainError(
                "exponential covariance models receive correlation and "
                "requires n_tx == 1"
            )
        return exponential_covariance(dims.n_rx, params["rho"]).astype(complex)
    if kind == "bessel-tx":
        sigma_tx = bessel_tx_covariance(
            dims.n_tx, params["delta"], params["theta"], params["gamma_max"]
        )
        return np.kron(sigma_tx, np.eye(dims.n_rx))
    # custom
    sigma = _parse_complex_matrix(params)
    if sigma.shape != (dims.channel_len, dims.channel_len):
        raise DimensionError(
            f"custom covariance has shape {sigma.shape}, expected "
            f"({dims.channel_len}, {dims.channel_len})"
        )
    return sigma


def build_pilots(spec, dims, snr_linear, sigma_ch=None):
    """Materialize the pilot matrix for one SNR point at noise variance
    NOISE_VAR.

    kinds: scalar (single-input single-pilot); scaled-unitary (identity
    basis, n_pilots == n_tx); eigenbasis (rows from the transmit-covariance
    eigenvectors, n_pilots == n_tx, needs sigma_ch); explicit (fixed base
    matrix rescaled to the target SNR).
    """
    kind, params = _spec_params(spec, PILOT_PARAMS, "pilot")
    if not 0.0 < check_number(snr_linear, "snr_linear") < math.inf:
        raise DomainError(f"snr_linear must be positive and finite, got {snr_linear!r}")
    if kind == "scalar":
        if dims.n_tx != 1 or dims.n_pilots != 1:
            raise DomainError("scalar pilots require n_tx == n_pilots == 1")
        return np.array([[math.sqrt(snr_linear * NOISE_VAR)]], dtype=complex)
    if kind == "scaled-unitary":
        if dims.n_pilots != dims.n_tx:
            raise DomainError("scaled-unitary pilots require n_pilots == n_tx")
        eta = snr_linear * dims.n_tx * NOISE_VAR
        return math.sqrt(eta) * np.eye(dims.n_tx, dtype=complex)
    if kind == "eigenbasis":
        if dims.n_pilots != dims.n_tx:
            raise DomainError("eigenbasis pilots require n_pilots == n_tx")
        if sigma_ch is None:
            raise DomainError("eigenbasis pilots require the channel covariance")
        # judged as second_order_stats judges it, read in its own dtype
        check_hermitian(sigma_ch, "sigma_ch", complex, dims.channel_len)
        sigma_tx = tx_covariance(np.asarray(sigma_ch), dims)
        if sigma_tx is None:
            raise DomainError(
                "eigenbasis pilots require sigma_ch = kron(sigma_tx, identity)"
            )
        _, vecs = np.linalg.eigh(sigma_tx)
        eta = snr_linear * dims.n_tx * NOISE_VAR
        return math.sqrt(eta) * vecs.conj().T
    # explicit
    base = _parse_complex_matrix(params)
    if base.shape != (dims.n_pilots, dims.n_tx):
        raise DimensionError(
            f"explicit pilots have shape {base.shape}, expected "
            f"({dims.n_pilots}, {dims.n_tx})"
        )
    energy = np.linalg.norm(base) ** 2
    if energy <= 0.0:
        raise DomainError("explicit pilot matrix must be non-zero")
    target = snr_linear * dims.n_pilots * dims.n_tx * NOISE_VAR
    return base * math.sqrt(target / energy)


def _resolve_estimators(names, stats, model, rel_tol):
    """Turn estimator names into batch evaluators r -> h_hat, r the (n, tau
    N_R) complex sign array of a chunk of trials.

    Two paths: blmmse, and mmse where it is exactly linear, apply one
    linear map W per point: mmse_linear_operator's when mmse is asked for
    and linear, else blmmse_operator's, built only when blmmse needs it.
    Both names then map to the same evaluator object, which the sweep runs
    once per chunk for both rows.  Every other mmse point reads the
    sign table that mmse_estimate reads one pattern from
    (estimators._sign_tables).  It rests
    on the odd symmetry of each coupled block B of S and on the rotation
    r -> j r: at most 2^(|B|-2) solves for a block the rotation maps onto
    itself, and 2^(|B|-1) for each pair of blocks it maps onto each other,
    each row solved the first time a trial needs it or its rotation.
    """
    w = mmse_linear_operator(stats, model) if "mmse" in names else None
    evals = {}
    if "mmse" in names and w is None:
        evaluate, _ = _sign_tables(stats, model, rel_tol)
        evals["mmse"] = lambda r: evaluate(r)[0]
    if "blmmse" in names and w is None:
        w = blmmse_operator(stats, model)
    linear = lambda r: r @ w.T
    return {name: evals.get(name, linear) for name in names}


def build_point(config, snr_db):
    """Materialize (stats, model) for one SNR point of a sweep config."""
    sigma = build_covariance(config.covariance, config.dims)
    snr = snr_from_db(snr_db)
    pilots = build_pilots(config.pilots, config.dims, snr, sigma_ch=sigma)
    model = build_pilot_model(pilots, config.dims.n_rx)
    stats = second_order_stats(model, sigma, NOISE_VAR)
    return stats, model


def run_mse_sweep(config):
    """Run the Monte Carlo sweep described by a SweepConfig.

    Returns an MseSweepResult with one row per (snr_db, estimator),
    ordered by ascending SNR then estimator name.  Deterministic for a
    fixed config: trials sit at fixed positions of one counter-based
    stream, and squared errors are summed exactly as each chunk is drawn
    and rounded once (_ExactSum), so each sum is the correctly rounded one
    and the sweep's memory does not grow with config.trials.  Every point
    reads the same h and n for a trial: each chunk is drawn once and each
    point forms its own b = A h + n from the draw, so a point's row equals
    that of a sweep over that point alone.  A point quantizes each chunk
    once, and runs each distinct evaluator of _resolve_estimators once on
    it: at an exactly linear point the mmse and blmmse rows are read from
    one pair of sums, so they are equal.
    """
    dims = config.dims
    trials = config.trials
    rows = []
    eta_notes = []
    # Build and resolve every point before the first trial, so that a point
    # that cannot be served fails the sweep before any sampling is spent.
    points = []
    for snr_db in sorted(map(float, config.snr_grid_db)):
        stats, model = build_point(config, snr_db)
        eta_notes.append(
            f"snr_db={snr_db:g} eta={np.linalg.norm(model.pilots) ** 2 / dims.n_pilots:.12g}"
        )
        evals = _resolve_estimators(config.estimators, stats, model, config.rel_tol)
        points.append((snr_db, stats, model, evals))
    # h and n read only the seed, the trial, sigma_ch and NOISE_VAR, which
    # no point changes, so any point's stats can draw them.
    _, draw_stats, draw_model, _ = points[0]
    # per (point, distinct evaluator): exact sums of v and v**2, v a trial's
    # squared error per channel coefficient
    sums = [{evaluate: (_ExactSum(), _ExactSum()) for evaluate in dict.fromkeys(evals.values())}
            for *_, evals in points]
    done = 0
    while done < trials:
        n = min(_CHUNK, trials - done)
        h, noise = sample_realizations(
            draw_stats, draw_model, config.seed, n, start_stream=done
        )
        for (_, _, model, _), point_sums in zip(points, sums):
            # one sign pass over the interleaved (Re, Im) parts of b; viewed
            # as complex, they are r = sgn(Re b) + j sgn(Im b)
            r = sgn(observe(model, h, noise).view(np.float64)).view(np.complex128)
            for evaluate, (sum_v, sum_sq) in point_sums.items():
                diff = evaluate(r) - h
                v = (
                    np.einsum("ij,ij->i", diff.real, diff.real)
                    + np.einsum("ij,ij->i", diff.imag, diff.imag)
                ) / dims.channel_len
                sum_v.add(v)
                sum_sq.add(v * v)
        done += n
    for (snr_db, _, _, evals), point_sums in zip(points, sums):
        for name, evaluate in evals.items():
            sum_v, sum_sq = point_sums[evaluate]
            mean = sum_v.value() / trials
            mean_sq = sum_sq.value() / trials
            stderr = math.sqrt(max(mean_sq - mean * mean, 0.0) / trials)
            rows.append(
                SweepRow(
                    snr_db=snr_db,
                    estimator=name,
                    mse=mean,
                    stderr=stderr,
                    trials=trials,
                )
            )
    rows.sort(key=lambda r: (r.snr_db, r.estimator))
    metadata = {
        "dims": f"n_tx={dims.n_tx} n_rx={dims.n_rx} n_pilots={dims.n_pilots}",
        "covariance": _echo_spec(config.covariance),
        "pilots": _echo_spec(config.pilots),
        "noise_var": f"{NOISE_VAR:g}",
        "pilot_energy_per_symbol": "; ".join(eta_notes),
        "estimators": ",".join(config.estimators),
        "trials": str(trials),
        "seed": str(config.seed),
        "sampling": STREAM_CONTRACT,
        "rel_tol": f"{config.rel_tol:g}",
    }
    return MseSweepResult(rows=rows, metadata=metadata)


def _echo_spec(spec):
    """A spec as one preamble line of key=value pairs.  A matrix entry
    shows as its shape and the leading 16 hex digits of the sha256 of its
    float64 bytes, so specs that differ in any entry echo differently."""
    parts = []
    for key, value in sorted(spec.items()):
        if isinstance(value, (list, tuple, np.ndarray)):
            m = number_array(value, repr(key))
            digest = hashlib.sha256(m.tobytes()).hexdigest()[:16]
            value = "x".join(map(str, m.shape)) + ":sha256:" + digest
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_csv(result):
    """Render a sweep result as CSV text with a commented metadata preamble."""
    lines = ["# one-bit mimo mse sweep"]
    for key, value in result.metadata.items():
        lines.append(f"# {key}: {value}")
    lines.append("SNR_dB,estimator,MSE,stderr,trials")
    for row in result.rows:
        lines.append(
            f"{row.snr_db:.12g},{row.estimator},{row.mse:.12g},"
            f"{row.stderr:.12g},{row.trials}"
        )
    return "\n".join(lines) + "\n"


def emit_results(result, path):
    """Write a sweep result to a CSV file; identical configs yield
    byte-identical files."""
    text = render_csv(result)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path
