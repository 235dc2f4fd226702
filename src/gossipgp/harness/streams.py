"""Data ingestion, partitioning, synthetic streams, and outlier injection.

Grid files are comma-separated text with a required ``lat,lon,t,value``
header. Spatial coordinates are min-max normalized to [0,1]^2, values
standardized to zero mean and unit variance over the whole file, and the
time column is kept as raw integer epochs. Space is split into K contiguous
rectangular blocks, one per agent. Rows are sorted by (epoch, owner, lat,
lon), so each agent's sites form one contiguous block of its epoch's
evaluation grid: the batch is that slice, and its arrays are views of the
epoch's. Stream.blocks(t) derives the blocks' row offsets from the batches.

Synthetic streams draw a ground-truth function f(x) = phi(x)^T theta* from
a known random-feature basis; the drifting variant evolves
theta*_t = theta*_{t-1} + u_t with a configurable step scale.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from ..consensus import _grid_shape
from ..features import KernelSpec, sample_frequencies, feature_matrix

__all__ = [
    "StreamBatch",
    "Stream",
    "SynthConfig",
    "OutlierSpec",
    "load_grid_dataset",
    "synth_stream",
    "inject_outliers",
    "synthetic_weather_table",
    "write_synthetic_weather_csv",
]

GRID_HEADER = ("lat", "lon", "t", "value")


@dataclass(frozen=True)
class StreamBatch:
    """One agent's observations at one epoch (possibly empty).

    batches[t][k] of a Stream is agent k's batch at epoch t.
    """

    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError(
                f"batch shapes inconsistent: X {self.X.shape}, y {self.y.shape}"
            )
        if self.X.size and not np.all(np.isfinite(self.X)):
            raise ValueError("batch inputs must be finite")
        if self.y.size and not np.all(np.isfinite(self.y)):
            raise ValueError("batch outputs must be finite")

    @property
    def size(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class Stream:
    """Per-epoch per-agent batches plus the evaluation grid and its truth.

    output_sd is the output standard deviation in stream units, used to
    scale injected outlier magnitudes. For synthetic streams, `truth`
    records the generating basis and weights.
    """

    num_agents: int
    epochs: tuple[int, ...]
    batches: dict[int, list[StreamBatch]] = field(repr=False)
    eval_inputs: dict[int, np.ndarray] = field(repr=False)
    eval_truth: dict[int, np.ndarray] = field(repr=False)
    output_sd: float = 1.0
    truth: dict | None = field(default=None, repr=False)

    def blocks(self, t: int) -> list[int] | None:
        """The agents' row offsets in epoch t's evaluation grid, or None.

        When the K batches of epoch t, in agent order, are consecutive blocks
        of its evaluation grid (as a grid file's are), agent k's batch is
        rows offsets[k]:offsets[k + 1] of it, an empty block included, and
        the K + 1 offsets are returned. Otherwise (a synthetic stream, or
        batches out of that order) the result is None.
        """
        if len(self.batches[t]) != self.num_agents:
            return None
        sites, offsets = self.eval_inputs[t], [0]
        for batch in self.batches[t]:
            start = offsets[-1]
            if not np.array_equal(sites[start : start + batch.size], batch.X):
                return None
            offsets.append(start + batch.size)
        return offsets if offsets[-1] == len(sites) else None


class GridParseError(ValueError):
    """Malformed gridded input file."""


def load_grid_dataset(path, K: int) -> Stream:
    """Load the lat,lon,t,value file at path and split space into K agent blocks.

    Block (lat_block, lon_block) goes to agent lat_block * cols + lon_block,
    the grid topology's node at the same position. A site listed twice in
    one epoch is a GridParseError naming both file lines.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    lat, lon, t_raw, val = _read_grid_rows(path)

    rows, cols = _grid_shape(K)
    uniq_lat = np.unique(lat)
    uniq_lon = np.unique(lon)
    if uniq_lat.size < rows or uniq_lon.size < cols:
        raise ValueError(
            f"cannot split a {uniq_lat.size} x {uniq_lon.size} grid into "
            f"{rows} x {cols} agent blocks"
        )

    # Min-max inputs to [0, 1] per column; standardize the outputs.
    X = np.column_stack([lat, lon])
    x_min, x_max = X.min(axis=0), X.max(axis=0)
    X = (X - x_min) / np.where(x_max > x_min, x_max - x_min, 1.0)
    y = (val - float(val.mean())) / (float(val.std()) if val.std() > 0 else 1.0)

    # Rank-based block assignment over unique coordinate values gives equal
    # blocks whenever the grid divides evenly.
    lat_rank = np.searchsorted(uniq_lat, lat)
    lon_rank = np.searchsorted(uniq_lon, lon)
    lat_block = lat_rank * rows // uniq_lat.size
    lon_block = lon_rank * cols // uniq_lon.size
    owner = lat_block * cols + lon_block

    # One stable sort by (epoch, owner, lat, lon), split at the epoch
    # boundaries: each agent's sites are then one slice of its epoch, and a
    # site listed twice sits next to its copy.
    order = np.lexsort((lon, lat, owner, t_raw))
    t_raw, X, y, owner = t_raw[order], X[order], y[order], owner[order]
    twice = np.flatnonzero((t_raw[1:] == t_raw[:-1]) & np.all(X[1:] == X[:-1], axis=1))
    if twice.size:
        first, second = order[twice[0]], order[twice[0] + 1]
        lines = [line for i, (line, _) in enumerate(_grid_rows(path)) if i in (first, second)]
        raise GridParseError(
            f"lines {lines[0]} and {lines[1]}: site ({float(lat[first])!r}, "
            f"{float(lon[first])!r}) is listed twice in epoch {int(t_raw[twice[0]])}"
        )
    epochs, starts = np.unique(t_raw, return_index=True)
    epochs = tuple(int(e) for e in epochs)
    eval_inputs = dict(zip(epochs, np.split(X, starts[1:])))
    eval_truth = dict(zip(epochs, np.split(y, starts[1:])))
    batches = {}
    for t, owner_t in zip(epochs, np.split(owner, starts[1:])):
        bounds = np.searchsorted(owner_t, np.arange(K + 1)).tolist()
        batches[t] = [StreamBatch(X=eval_inputs[t][a:b], y=eval_truth[t][a:b])
                      for a, b in zip(bounds[:-1], bounds[1:])]
    return Stream(
        num_agents=K,
        epochs=epochs,
        batches=batches,
        eval_inputs=eval_inputs,
        eval_truth=eval_truth,
        output_sd=1.0,
    )


def _grid_rows(path):
    """(file line, fields) of each non-empty line after the header of the grid file at path.

    These are the rows the parse reads; re-reading the file this way runs
    only after a failure, to name its file lines.
    """
    with open(path) as fp:
        reader = csv.reader(fp)
        next(reader, None)
        yield from ((reader.line_num, row) for row in reader if row)


def _read_grid_rows(path):
    """The lat, lon, t and value columns of the grid file at path."""
    with open(path) as fp:
        header = next(csv.reader([fp.readline()]))
        if tuple(h.strip() for h in header) != GRID_HEADER:
            raise GridParseError(
                f"expected header {','.join(GRID_HEADER)!r}, got {header!r}"
            )
        start = fp.tell()
        if not any(line.strip() for line in iter(fp.readline, "")):
            raise GridParseError("grid file contains no data rows")
        fp.seek(start)
        try:
            data = np.loadtxt(fp, delimiter=",", quotechar='"', comments=None, ndmin=2)
            if data.shape[1] != len(GRID_HEADER):
                raise ValueError(f"rows have {data.shape[1]} fields")
            lat, lon, t, val = data.T
            if not (np.all(np.isfinite(data)) and np.all(t == np.trunc(t))):
                raise ValueError("fields must be finite and time an integer epoch")
        except ValueError as exc:
            raise _parse_error(path, exc) from None
    return lat, lon, t.astype(int), val


def _parse_error(path, exc) -> GridParseError:
    """The error naming the first data line that is not four finite numbers with an integer epoch.

    This re-scan runs only after the parse of the whole body failed with exc;
    that error is reported when no single line is at fault.
    """
    for line, row in _grid_rows(path):
        try:
            if len(row) != len(GRID_HEADER):
                raise ValueError(f"expected {len(GRID_HEADER)} fields, got {len(row)}")
            values = [float(value) for value in row]
            if not values[2].is_integer():
                raise ValueError("time must be an integer epoch")
            for name, value in zip(GRID_HEADER, values):
                if not np.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
        except ValueError as err:
            return GridParseError(f"line {line}: cannot parse row {row!r}: {err}")
    return GridParseError(f"cannot parse the grid rows: {exc}")


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of a synthetic ground-truth stream."""

    kind: str = "static_gp"
    epochs: int = 10
    batch_size: int = 20
    spatial_dim: int = 2
    lengthscale: float = 0.3
    prior_variance: float = 1.0
    obs_variance: float = 0.01
    true_J: int = 64
    drift_scale: float = 0.0
    num_eval_points: int = 200

    def __post_init__(self):
        if self.kind not in ("static_gp", "drifting_gp"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if min(self.epochs, self.spatial_dim, self.true_J) < 1:
            raise ValueError("epochs, spatial_dim, true_J must be >= 1")
        if self.batch_size < 0 or self.num_eval_points < 1:
            raise ValueError("batch_size must be >= 0 and num_eval_points >= 1")
        for name in ("lengthscale", "prior_variance", "obs_variance"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")
        if not 0 <= self.drift_scale < np.inf:
            raise ValueError(f"drift_scale must be finite and >= 0, got {self.drift_scale}")
        if self.kind == "static_gp" and self.drift_scale != 0:
            raise ValueError(f"a static_gp stream does not drift; drift_scale must be 0, "
                             f"got {self.drift_scale}")


def synth_stream(cfg: SynthConfig, K: int, seed: int) -> Stream:
    """Deterministic synthetic stream of K agents with a known random-feature truth."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    root = np.random.SeedSequence(entropy=seed, spawn_key=(101,))
    feat_ss, theta_ss, drift_ss, x_ss, noise_ss, eval_ss = root.spawn(6)
    feature_seed = int(feat_ss.generate_state(1, dtype=np.uint64)[0])

    spec = KernelSpec(
        spatial_lengthscales=(cfg.lengthscale,) * cfg.spatial_dim,
        prior_variance=cfg.prior_variance,
        obs_variance=cfg.obs_variance,
    )
    fm = sample_frequencies(spec, cfg.true_J, feature_seed)
    dim = 2 * cfg.true_J

    theta_rng = np.random.default_rng(theta_ss)
    theta0 = np.sqrt(cfg.prior_variance) * theta_rng.standard_normal(dim)
    drift_rng = np.random.default_rng(drift_ss)
    # Drift noise is always drawn, so drift_scale 0 (steps of +-0)
    # reproduces the static stream bit-for-bit under the same seed.
    steps = cfg.drift_scale * drift_rng.standard_normal((cfg.epochs, dim))
    theta = theta0[np.newaxis, :] + np.cumsum(steps, axis=0)

    x_rng = np.random.default_rng(x_ss)
    noise_rng = np.random.default_rng(noise_ss)
    sigma = np.sqrt(cfg.obs_variance)

    epochs = tuple(range(cfg.epochs))
    batches: dict[int, list[StreamBatch]] = {}
    all_y = []
    for t in epochs:
        per_agent = []
        for _ in range(K):
            X = x_rng.uniform(size=(cfg.batch_size, cfg.spatial_dim))
            f = feature_matrix(fm, X).T @ theta[t]
            y = f + sigma * noise_rng.standard_normal(cfg.batch_size)
            per_agent.append(StreamBatch(X=X, y=y))
            all_y.append(y)
        batches[t] = per_agent

    eval_rng = np.random.default_rng(eval_ss)
    X_eval = eval_rng.uniform(size=(cfg.num_eval_points, cfg.spatial_dim))
    Phi_eval = feature_matrix(fm, X_eval)
    eval_inputs = {t: X_eval for t in epochs}
    eval_truth = {t: Phi_eval.T @ theta[t] for t in epochs}

    # A unit output_sd where there is no observation (batch_size 0) or no spread.
    stacked = np.concatenate(all_y)
    output_sd = float(stacked.std()) if stacked.size else 0.0
    return Stream(
        num_agents=K,
        epochs=epochs,
        batches=batches,
        eval_inputs=eval_inputs,
        eval_truth=eval_truth,
        output_sd=output_sd if output_sd > 0 else 1.0,
        truth={
            "kernel": spec,
            "J": cfg.true_J,
            "feature_seed": feature_seed,
            "theta": theta,
        },
    )


@dataclass(frozen=True)
class OutlierSpec:
    """Contamination of one epoch: bias a fraction of observations upward.

    Selected values become y + magnitude_sd * output_sd * (1 + jitter * u)
    with u ~ Uniform(-1, 1). `region` is a spatial box in normalized
    coordinates ((lo...), (hi...)); `agents` restricts the targeted agents.
    """

    epoch: int
    fraction: float
    magnitude_sd: float = 8.0
    region: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    agents: tuple[int, ...] | None = None
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")
        if not 0 < self.magnitude_sd < np.inf:
            raise ValueError(f"magnitude_sd must be finite and strictly positive, "
                             f"got {self.magnitude_sd}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")
        if self.region is not None:
            lo, hi = (np.asarray(v, dtype=float) for v in self.region)
            if lo.shape != hi.shape:
                raise ValueError("region corners must share a shape")
            if np.any(lo >= hi) or np.any(lo < 0.0) or np.any(hi > 1.0):
                raise ValueError(
                    f"region {self.region} is outside the normalized domain [0,1]^d"
                )


def inject_outliers(stream: Stream, spec: OutlierSpec) -> Stream:
    """Return a copy of the stream with one epoch contaminated."""
    if spec.epoch not in stream.batches:
        raise ValueError(f"outlier epoch {spec.epoch} is not in the stream")
    targets = range(stream.num_agents) if spec.agents is None else spec.agents
    for k in targets:
        if not 0 <= k < stream.num_agents:
            raise ValueError(f"outlier agent {k} out of range for K={stream.num_agents}")

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    new_epoch: list[StreamBatch] = []
    for k, batch in enumerate(stream.batches[spec.epoch]):
        if k not in targets or batch.size == 0:
            new_epoch.append(batch)
            continue
        if spec.region is None:
            mask = np.ones(batch.size, dtype=bool)
        else:
            lo, hi = (np.asarray(v, dtype=float) for v in spec.region)
            if lo.size != batch.X.shape[1]:
                raise ValueError(
                    f"region dimension {lo.size} does not match inputs {batch.X.shape[1]}"
                )
            mask = np.all((batch.X >= lo) & (batch.X <= hi), axis=1)
        candidates = np.flatnonzero(mask)
        exact = spec.fraction * candidates.size
        count = int(np.floor(exact))
        if rng.random() < exact - count:
            count += 1
        if count == 0:
            new_epoch.append(batch)
            continue
        chosen = rng.choice(candidates, size=count, replace=False)
        u = rng.uniform(-1.0, 1.0, size=count)
        y = batch.y.copy()
        y[chosen] = y[chosen] + spec.magnitude_sd * stream.output_sd * (
            1.0 + spec.jitter * u
        )
        new_epoch.append(StreamBatch(X=batch.X, y=y))

    batches = dict(stream.batches)
    batches[spec.epoch] = new_epoch
    return replace(stream, batches=batches)


def synthetic_weather_table(
    nlat: int = 10, nlon: int = 10, epochs: int = 6, seed: int = 0, noise_sd: float = 0.4
) -> np.ndarray:
    """Monthly-temperature-like rows (lat, lon, t, value) on a regular grid.

    A smooth seasonal cycle with a latitude-dependent phase, a fixed spatial
    pattern, and additive Gaussian noise. Deterministic per seed.
    """
    lat = np.linspace(40.0, 49.5, nlat)
    lon = np.linspace(60.0, 69.5, nlon)
    LA, LO = np.meshgrid(lat, lon, indexing="ij")
    u = (LA - lat.min()) / (lat.max() - lat.min())
    v = (LO - lon.min()) / (lon.max() - lon.min())
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    rows = []
    for t in range(epochs):
        seasonal = 8.0 * np.sin(2.0 * np.pi * t / 12.0 + 0.8 + 0.6 * u)
        pattern = 2.5 * np.sin(2.3 * np.pi * v + 0.4) * np.cos(1.7 * np.pi * u) - 4.0 * u
        value = 12.0 + seasonal + pattern + noise_sd * rng.standard_normal(LA.shape)
        for i in range(nlat):
            for j in range(nlon):
                rows.append((LA[i, j], LO[i, j], float(t), value[i, j]))
    return np.asarray(rows)


def write_synthetic_weather_csv(path, **kwargs) -> None:
    """Write synthetic_weather_table rows as a lat,lon,t,value file."""
    rows = synthetic_weather_table(**kwargs)
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(GRID_HEADER)
        for la, lo, t, vv in rows:
            writer.writerow([repr(float(la)), repr(float(lo)), int(t), repr(float(vv))])
