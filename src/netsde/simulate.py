"""Euler-Maruyama simulation of networked diffusions.

Paths are recorded on the observation grid t_k = k * delta while the
integrator takes `substeps` internal steps of size h = delta / substeps per
observation interval.  Noise comes from a counter-based generator (Philox)
keyed by the seed, consumed in (step, coordinate) order, so a path is a
pure function of (seed, step, coordinate) and replications with distinct
seeds are independent and individually reproducible.

simulate_path and simulate_ensemble share one Euler loop.  The linear
family steps with the matrix P = I + h M' (x -> x P + h b0); the radial
family evaluates x + h b(x).  sigma's state-free factor (alpha, times the
clip level for TanhClipped) and sqrt(h) scale each chunk of noise once,
the tanh shape is evaluated in preallocated buffers, and each substep's
state overwrites the increment that produced it.  The explosion guard
checks every substep state of an observation interval once the interval
is done, so ExplosionError.step is still the first offending substep.  The
loop hands each chunk of recorded rows to a consumer, together with the
tanh shape factor that the first substep of each row's interval
evaluated at the state the interval started from (clip times it is
diffusion_shape there, bit for bit; None for ConstantDiagonal): an
ensemble copies the rows into one (reps, n + 1, d) array and each
SamplePath holds a view of it, with no per-replication copy, and ignores
the shapes, while netsde.experiments' two studies fold rows and shapes
into moments, store no path and evaluate no diffusion.

Drawing the Gaussians costs about as much as stepping a wide ensemble, so
the loop runs in chunks of whole observation intervals (~1M noise values
each) and one worker thread draws the next chunk's noise while the caller's
thread steps the current one; numpy's standard_normal releases the GIL.
Philox streams are independent per key and only the worker draws, chunk
after chunk, so each stream is still read in (step, coordinate) order and
the paths are the numbers a serial loop gives.  The worker lives only for
the call.  Driven (dW) paths draw nothing and start no thread.

CSV round trips (to_csv, from_csv, write_csv, read_csv) go through the
panel codec of netsde.ingest: a path CSV is a panel with a 't' column
and no missing values, written via repr so a round trip is bit exact,
and read back with one np.loadtxt call, since it has no empty cell.  A
path of ingest.SPLIT_MIN_CELLS cells or more is therefore formatted and
parsed in two processes, one os.fork()ed child taking the second half
of the rows, to the same text and values; while a second Python thread
is alive (the noise worker lives only inside a simulation call) the
codec stays in this process.
"""
from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph
from .model import ConstantDiagonal, NsdeSpec, ParamVector, euler_step_fn

EXPLOSION_GUARD = 1e8


class SimulationError(RuntimeError):
    pass


class ExplosionError(SimulationError):
    """State left the guard box or became non-finite."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class InvalidSubstepsError(ValueError):
    pass


@dataclass(frozen=True)
class SamplePath:
    """Equispaced observations of a d-dimensional path.

    Attributes:
        delta: observation spacing.
        data: array of shape (rows, d); row k is the state at t = k * delta.
        seed: integer noise provenance, or None when unknown (e.g. loaded
            from disk or driven by externally supplied increments).
    """

    delta: float
    data: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise ValueError("path data must be a 2-D array with at least one row")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("path data contains non-finite entries")

    @property
    def n(self) -> int:
        """Number of increments (rows - 1)."""
        return self.data.shape[0] - 1

    @property
    def d(self) -> int:
        return self.data.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.data.shape[0]) * self.delta


def derive_seeds(base_seed: int, count: int) -> list[int]:
    """Independent per-replication seeds derived from a base seed."""
    children = np.random.SeedSequence(base_seed).spawn(count)
    out = []
    for child in children:
        k0, k1 = child.generate_state(2, dtype=np.uint64)
        out.append(int(k0) | (int(k1) << 64))
    return out


def _check_args(spec, g, x0, delta, n, substeps, burn_in_steps):
    if g.d != spec.d:
        raise ValueError(f"graph has {g.d} nodes, model has {spec.d}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.d,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({spec.d},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 contains non-finite entries")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if substeps < 1:
        raise InvalidSubstepsError(f"substeps must be >= 1, got {substeps}")
    if burn_in_steps < 0:
        raise ValueError(f"burn_in_steps must be non-negative, got {burn_in_steps}")
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    return x0


def _euler(spec: NsdeSpec, g: DirectedGraph, theta: ParamVector, x0,
           delta: float, n: int, substeps: int, burn_in_steps: int,
           seeds: list[int], dW: np.ndarray | None, ensemble: bool,
           consume: Callable[[int, np.ndarray, np.ndarray | None], None]
           ) -> None:
    """The Euler loop: hands the n + 1 recorded rows to consume in order.

    consume(lo, block, shape) receives rows lo, ..., lo + k - 1 of every
    replication as block (reps, k, d); successive calls continue where the
    last one stopped.  shape (reps, k, d) holds, for each of those rows,
    the diffusion shape factor (diffusion_shape / clip) that the first
    substep of its interval evaluated at the interval's start, so clip
    times shape[:, t] is diffusion_shape of row lo + t - 1, bit for bit.
    It is None for ConstantDiagonal, whose shape is 1, and for the initial
    row of a run without burn-in, which no interval precedes.  block and
    shape are views of buffers the loop overwrites after the call returns,
    so the consumer copies or folds what it keeps.  Noise is one Philox
    stream per seed, or the given dW for a single replication.  An
    explosion names the replication and its seed when `ensemble` is set.

    The substeps run in chunks of whole observation intervals, at most
    ~1M noise values each, so z plus two raw buffers take ~24 MB.  One
    worker thread draws chunk i + 1 into one raw buffer while this thread
    steps chunk i and hands on its rows; it alone draws, chunk after
    chunk, so every stream is read in (step, coordinate) order as in a
    serial loop.  Leaving the pool waits for a fill in flight, however the
    loop ends.
    """
    d = spec.d
    h = delta / substeps
    fold, step = euler_step_fn(spec, g, theta, h)
    reps = len(seeds)
    total = burn_in_steps + n
    chunk = max(1, min(total, 1_000_000 // (reps * substeps * d)))
    spans = [(start, min(chunk, total - start))
             for start in range(0, total, chunk)]
    z = np.empty((chunk * substeps, reps, d))
    if dW is None:
        fold = fold * np.sqrt(h)
        gens = [np.random.Generator(np.random.Philox(key=s)) for s in seeds]
        raw = np.empty((2, reps, chunk * substeps, d))

        def fill(i):
            buf = raw[i % 2, :, :spans[i][1] * substeps]
            for gen, out in zip(gens, buf):
                gen.standard_normal(out=out)
            return buf
    tmp = np.empty((reps, d))
    # the shape factor at each interval's start, from its first substep
    shapes = (None if isinstance(spec.diffusion, ConstantDiagonal)
              else np.empty((chunk, reps, d)))
    x = np.tile(x0, (reps, 1))
    if burn_in_steps == 0:
        consume(0, x[:, None], None)
    with ThreadPoolExecutor(max_workers=1) as pool, \
            np.errstate(over="ignore", invalid="ignore"):
        if dW is None and spans:
            ahead = pool.submit(fill, 0)
        for i, (start, m) in enumerate(spans):
            zc = z[:m * substeps]
            if dW is None:
                noise = ahead.result()
                if i + 1 < len(spans):
                    ahead = pool.submit(fill, i + 1)
                np.multiply(noise.transpose(1, 0, 2), fold, out=zc)
            else:
                np.multiply(dW[start * substeps:(start + m) * substeps, None],
                            fold, out=zc)
            for k in range(m):
                interval = zc[k * substeps:(k + 1) * substeps]
                shape = tmp if shapes is None else shapes[k]
                for dw in interval:
                    step(x, dw, tmp, shape)
                    shape = tmp
                    x = dw
                if not (interval.max() <= EXPLOSION_GUARD
                        and interval.min() >= -EXPLOSION_GUARD):
                    _explode(interval, (start + k) * substeps,
                             seeds if ensemble else None)
            # row j holds the state after interval burn_in_steps + j - 1
            lo = max(start + 1 - burn_in_steps, 0)
            hi = start + m + 1 - burn_in_steps
            if hi > lo:
                first = lo + burn_in_steps - 1 - start
                pick = slice(first, first + hi - lo)
                consume(lo, zc[substeps - 1::substeps][pick].transpose(1, 0, 2),
                        None if shapes is None
                        else shapes[pick].transpose(1, 0, 2))
            x = x.copy()  # the next chunk refills the buffer x points into


def _stored_rows(reps: int, n: int, d: int):
    """(rows, consume): a (reps, n + 1, d) array and the consumer that
    copies the Euler loop's rows into it."""
    rows = np.empty((reps, n + 1, d))

    def consume(lo, block, _shape):
        rows[:, lo:lo + block.shape[1]] = block
    return rows, consume


def _explode(interval: np.ndarray, step0: int, seeds: list[int] | None):
    """Raise for the first substep, and replication, outside the guard box."""
    bad = ~(np.abs(interval) <= EXPLOSION_GUARD)  # NaN counts as outside
    s = int(np.flatnonzero(bad.any(axis=(1, 2)))[0])
    step = step0 + s + 1
    if seeds is None:
        message = (f"state left the guard box (sup norm > {EXPLOSION_GUARD:g}) "
                   f"at substep {step}")
    else:
        r = int(np.flatnonzero(bad[s].any(axis=1))[0])
        message = (f"replication {r} (seed {seeds[r]}) left the guard box "
                   f"at substep {step}")
    raise ExplosionError(message, step=step)


def simulate_path(spec: NsdeSpec, g: DirectedGraph, theta: ParamVector, x0,
                  delta: float, n: int, substeps: int = 10, seed: int = 0,
                  burn_in_steps: int = 0, dW: np.ndarray | None = None) -> SamplePath:
    """Simulate one path and record n + 1 states on the observation grid.

    Args:
        x0: initial state (state at the start of burn-in when burn-in is used).
        delta: observation spacing; internal step is delta / substeps.
        n: number of recorded increments.
        burn_in_steps: observation intervals evolved and discarded before
            row 0 is recorded.
        dW: optional pre-computed Brownian increments of shape
            ((burn_in_steps + n) * substeps, d); overrides the seeded noise
            stream (useful for coupling experiments and noise-free checks).

    Raises:
        ExplosionError: if the state leaves the guard box or becomes
            non-finite at any internal step.
    """
    x0 = _check_args(spec, g, x0, delta, n, substeps, burn_in_steps)
    if dW is not None:
        dW = np.asarray(dW, dtype=float)
        total_sub = (burn_in_steps + n) * substeps
        if dW.shape != (total_sub, spec.d):
            raise ValueError(
                f"dW has shape {dW.shape}, expected ({total_sub}, {spec.d})")
    rows, consume = _stored_rows(1, n, spec.d)
    _euler(spec, g, theta, x0, delta, n, substeps, burn_in_steps,
           seeds=[seed], dW=dW, ensemble=False, consume=consume)
    return SamplePath(delta=delta, data=rows[0],
                      seed=None if dW is not None else int(seed))


def simulate_ensemble(spec: NsdeSpec, g: DirectedGraph, theta: ParamVector, x0,
                      delta: float, n: int, seeds, substeps: int = 10,
                      burn_in_steps: int = 0) -> list[SamplePath]:
    """Simulate one path per seed with a shared, vectorized step loop.

    Each replication consumes its own noise stream exactly as
    simulate_path(seed=...) would, so ensemble members agree with
    individually simulated paths up to floating-point reduction order.
    The paths are views of one (reps, n + 1, d) array.
    """
    seeds = [int(s) for s in seeds]
    x0 = _check_args(spec, g, x0, delta, n, substeps, burn_in_steps)
    if not seeds:
        return []
    rows, consume = _stored_rows(len(seeds), n, spec.d)
    _euler(spec, g, theta, x0, delta, n, substeps, burn_in_steps,
           seeds=seeds, dW=None, ensemble=True, consume=consume)
    return [SamplePath(delta=delta, data=data, seed=seed)
            for data, seed in zip(rows, seeds)]


# ---------------------------------------------------------------------------
# CSV serialization


def to_csv(path: SamplePath) -> str:
    """Header 't,x0,...,x{d-1}', one row per observation, written by
    netsde.ingest.panel_to_csv (floats via repr)."""
    # netsde.ingest imports this module, so its codec is imported here
    from .ingest import PanelData, panel_to_csv
    names = [f"x{j}" for j in range(path.d)]
    return panel_to_csv(PanelData(path.times, names, path.data))


def write_csv(path: SamplePath, file_path: str) -> None:
    with open(file_path, "w") as fh:
        fh.write(to_csv(path))


def from_csv(text: str) -> SamplePath:
    """Parse the format written by to_csv with netsde.ingest.parse_panel_csv
    and no missing markers, so a blank or non-numeric cell is an error
    naming its line, blank lines included.  delta is the first time
    difference (1.0 for a single row); spacing must be uniform.
    """
    from .ingest import parse_panel_csv
    panel = parse_panel_csv(text, missing_markers=())
    if panel.timestamp_label != "t":
        raise ValueError(
            f"expected first column 't', got {panel.timestamp_label!r}")
    if panel.n_rows < 2:
        return SamplePath(delta=1.0, data=panel.values, seed=None)
    diffs = np.diff(panel.timestamps)
    delta = float(diffs[0])
    if np.any(np.abs(diffs - delta) > 1e-9 * max(abs(delta), 1.0)):
        raise ValueError("observation times are not uniformly spaced")
    return SamplePath(delta=delta, data=panel.values, seed=None)


def read_csv(file_path: str) -> SamplePath:
    # reads the file itself, not through ingest.load_panel_csv, so that
    # perfbench's traced spans of a path read and a panel load stay apart
    with open(file_path) as fh:
        return from_csv(fh.read())
