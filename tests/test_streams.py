"""Grid ingestion, spatial partitioning, synthetic streams, outlier injection."""
import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgp import (
    build_topology,
    factorize,
    feature_matrix,
    posterior_root,
    prior_state,
    robust_increment,
    sample_frequencies,
)
from gossipgp.harness.streams import (
    GridParseError,
    OutlierSpec,
    StreamBatch,
    SynthConfig,
    inject_outliers,
    load_grid_dataset,
    synth_stream,
    synthetic_weather_table,
    write_synthetic_weather_csv,
    _read_grid_rows,
    _unique,
)


def write_grid(path, nlat=4, nlon=4, epochs=2, value_fn=None):
    rows = ["lat,lon,t,value"]
    for t in range(epochs):
        for i in range(nlat):
            for j in range(nlon):
                v = value_fn(i, j, t) if value_fn else float(i + 10 * j + 100 * t)
                rows.append(f"{40.0 + i},{60.0 + j},{t},{v}")
    path.write_text("\n".join(rows) + "\n")
    return path


class TestGridLoader:
    def test_partition_counts(self, tmp_path):
        # 20x20 grid split across K=4: each agent owns a 10x10 block.
        path = write_grid(tmp_path / "g.csv", nlat=20, nlon=20, epochs=1)
        stream = load_grid_dataset(path, K=4)
        for batch in stream.batches[0]:
            assert batch.size == 100

    def test_block_geometry(self, tmp_path):
        path = write_grid(tmp_path / "g.csv", nlat=4, nlon=4, epochs=1)
        stream = load_grid_dataset(path, K=4)
        # agent 0 owns the low-lat, low-lon corner
        b0 = stream.batches[0][0]
        assert np.all(b0.X[:, 0] <= 0.5) and np.all(b0.X[:, 1] <= 0.5)
        b3 = stream.batches[0][3]
        assert np.all(b3.X[:, 0] > 0.5) and np.all(b3.X[:, 1] > 0.5)

    def test_every_point_owned_exactly_once(self, tmp_path):
        path = write_grid(tmp_path / "g.csv", nlat=6, nlon=4, epochs=2)
        stream = load_grid_dataset(path, K=4)
        for t in stream.epochs:
            assert [b.size for b in stream.batches[t]] == [6, 6, 6, 6]
            assert stream.blocks(t) == [0, 6, 12, 18, 24]

    def test_owner_follows_each_epochs_sites(self, tmp_path):
        # Both epochs hold 15 of the 16 sites, but not the same 15: each
        # point's owner must be the block of its own site, not the point at
        # the same position in another epoch. Rows of the grid are sorted
        # by owner, so each agent's batch is its block of the epoch's rows.
        path = write_grid(tmp_path / "g.csv", nlat=4, nlon=4, epochs=2)
        lines = path.read_text().splitlines()
        missing = {"40.0,60.0,0", "43.0,63.0,1"}
        path.write_text("\n".join(l for l in lines if l.rsplit(",", 1)[0] not in missing))
        stream = load_grid_dataset(path, K=4)
        for t in stream.epochs:
            X = stream.eval_inputs[t]
            owner = 2 * (X[:, 0] > 0.5) + (X[:, 1] > 0.5)
            assert X.shape == (15, 2)
            assert np.array_equal(owner, np.sort(owner))
            for k, batch in enumerate(stream.batches[t]):
                assert np.array_equal(X[owner == k], batch.X)
            assert stream.blocks(t) == np.searchsorted(owner, range(5)).tolist()

    def test_inputs_normalized_outputs_standardized(self, tmp_path):
        path = write_grid(tmp_path / "g.csv", nlat=5, nlon=5, epochs=2)
        stream = load_grid_dataset(path, K=1)
        all_X = np.vstack([stream.batches[t][0].X for t in stream.epochs])
        all_y = np.concatenate([stream.batches[t][0].y for t in stream.epochs])
        assert all_X.min() == 0.0 and all_X.max() == 1.0
        assert abs(all_y.mean()) <= 1e-10
        assert abs(all_y.std() - 1.0) <= 1e-10

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("40,60,0,1.5\n")
        with pytest.raises(GridParseError, match="header"):
            load_grid_dataset(path, K=1)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lat,lon,t,value\n40,60,0,1.5\n40,60,zero,2.5\n")
        with pytest.raises(GridParseError, match="line 3"):
            load_grid_dataset(path, K=1)

    def test_fractional_epoch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lat,lon,t,value\n40,60,0.5,1.5\n")
        with pytest.raises(GridParseError):
            load_grid_dataset(path, K=1)

    def test_unsplittable_grid_rejected(self, tmp_path):
        path = write_grid(tmp_path / "g.csv", nlat=2, nlon=2, epochs=1)
        with pytest.raises(ValueError, match="split"):
            load_grid_dataset(path, K=9)

    @pytest.mark.parametrize("K", range(1, 21))
    def test_grid_neighbours_own_adjacent_blocks(self, tmp_path, K):
        # Agents i and j are grid-topology neighbours exactly when their
        # spatial blocks share an edge, i.e. when some site of one block has
        # a 4-neighbour site in the other.
        # Each agent's batch is its block of the grid's rows, so the owners
        # are laid out on the 20x20 raster by each site's lat and lon rank.
        path = write_grid(tmp_path / "g.csv", nlat=20, nlon=20, epochs=1)
        stream = load_grid_dataset(path, K)
        X = stream.eval_inputs[0]
        owner = np.full((20, 20), -1)
        owner[np.unique(X[:, 0], return_inverse=True)[1],
              np.unique(X[:, 1], return_inverse=True)[1]] = np.repeat(
                  np.arange(K), np.diff(stream.blocks(0)))
        assert owner.min() >= 0
        touching = set()
        for a, b in ((owner[:, :-1], owner[:, 1:]), (owner[:-1, :], owner[1:, :])):
            touching |= {(int(i), int(j)) for i, j in zip(a.ravel(), b.ravel()) if i != j}
            touching |= {(int(j), int(i)) for i, j in zip(a.ravel(), b.ravel()) if i != j}
        A = build_topology("grid", K).adjacency
        assert touching == {(int(i), int(j)) for i, j in zip(*np.nonzero(A))}

    def test_eval_grid_matches_batches(self, tmp_path):
        path = write_grid(tmp_path / "g.csv", nlat=4, nlon=4, epochs=2)
        stream = load_grid_dataset(path, K=2)
        for t in stream.epochs:
            assert stream.eval_inputs[t].shape == (16, 2)
            assert stream.eval_truth[t].shape == (16,)


# Arrays drawn from a few finite values plus both zeros, so most repeat.
repeating_floats = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from([*pool, 0.0, -0.0]), max_size=30))


@settings(max_examples=200, deadline=None)
@given(repeating_floats)
def test_loader_unique_is_np_unique(values):
    # The loader's coordinates are finite; on those, the sort-based unique
    # keeps what np.unique keeps (0.0 and -0.0 compare equal: one is kept).
    a = np.array(values, dtype=float)
    got, expected = _unique(a), np.unique(a)
    assert got.size == expected.size and np.all(got == expected)


def stream_arrays(stream):
    """Every array a grid stream holds, epoch by epoch, in a fixed order."""
    out = []
    for t in stream.epochs:
        out += [stream.eval_inputs[t], stream.eval_truth[t]]
        out += [a for b in stream.batches[t] for a in (b.X, b.y)]
        out.append(np.array(stream.blocks(t)))
    return out


class TestGridReader:
    """Spellings that a CSV reader accepts load to the same arrays; errors name file lines."""

    @pytest.fixture
    def plain(self, tmp_path):
        return write_grid(tmp_path / "plain.csv", nlat=4, nlon=3, epochs=2,
                          value_fn=lambda i, j, t: 0.25 * i - 1.5 * j + t / 3.0)

    @pytest.mark.parametrize("respell", [
        lambda lines: "\r\n".join(lines) + "\r\n",
        lambda lines: "\r".join(lines) + "\r",
        lambda lines: "\n\n".join(lines) + "\n\n",
        lambda lines: "\n".join(" " + " , ".join(line.split(",")) + " " for line in lines),
        lambda lines: "\n".join(",".join(f'"{v}"' for v in line.split(",")) for line in lines),
    ], ids=["crlf", "cr", "blank_lines", "spaces_around_fields", "quoted_numbers"])
    def test_accepted_spellings_load_to_the_same_arrays(self, plain, tmp_path, respell):
        path = tmp_path / "respelled.csv"
        path.write_bytes(respell(plain.read_text().splitlines()).encode())
        want, got = load_grid_dataset(plain, K=2), load_grid_dataset(path, K=2)
        assert got.epochs == want.epochs == (0, 1)
        for a, b in zip(stream_arrays(got), stream_arrays(want), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_columns_equal_a_row_by_row_reader(self, tmp_path):
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=7, nlon=5, epochs=3, seed=2)
        with open(path, newline="") as fp:
            rows = [row for row in list(csv.reader(fp))[1:] if row]
        want = [np.array([float(row[i]) for row in rows]) for i in range(4)]
        got = _read_grid_rows(path)
        assert got[2].dtype.kind == "i"
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad_row, line, reason", [
        ("41,61,0", 5, "expected 4 fields, got 3"),
        ("41,61,0,2.5,9", 5, "expected 4 fields, got 5"),
        ("41,61,0.5,2.5", 5, "time must be an integer epoch"),
        ("41,61,nan,2.5", 5, "time must be an integer epoch"),
        ("41,61,inf,2.5", 5, "time must be an integer epoch"),
        ("41,sixty,0,2.5", 5, "could not convert"),
    ])
    def test_bad_row_names_its_file_line(self, tmp_path, bad_row, line, reason):
        # Blank lines come before the bad row, so its file line is not its
        # data-row count.
        path = tmp_path / "bad.csv"
        path.write_text(f"lat,lon,t,value\n\n40,60,0,1.5\n\n{bad_row}\n40,61,0,3.5\n")
        with pytest.raises(GridParseError, match=f"^line {line}: .*{reason}"):
            load_grid_dataset(path, K=1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field, reason", [
        (0, "lat must be finite"),
        (1, "lon must be finite"),
        (2, "time must be an integer epoch"),
        (3, "value must be finite"),
    ], ids=["lat", "lon", "t", "value"])
    def test_non_finite_field_names_its_line(self, tmp_path, token, field, reason):
        # Non-finite numbers parse as floats, so they are caught after the
        # parse and reported before any scaling could warn about them.
        row = ["41", "61", "0", "2.5"]
        row[field] = token
        path = tmp_path / "bad.csv"
        path.write_text(f"lat,lon,t,value\n40,60,0,1.5\n{','.join(row)}\n40,61,0,3.5\n")
        with pytest.raises(GridParseError, match=f"^line 3: .*{reason}"):
            load_grid_dataset(path, K=1)

    @pytest.mark.parametrize("blank", [False, True], ids=["plain", "blank_lines"])
    def test_site_listed_twice_in_an_epoch_names_both_lines(self, tmp_path, blank):
        # Line 8 holds the 7th row of epoch 0 (site 41.0,60.0); the site
        # comes back with a new value at the end of the file, after epoch 1.
        path = write_grid(tmp_path / "g.csv", nlat=6, nlon=6, epochs=2)
        header, *rows = path.read_text().splitlines()
        assert rows[6].startswith("41.0,60.0,0,")
        rows.append("41.0,60.0,0,99.5")
        if blank:  # empty lines do not count as rows, but they are lines
            rows = [line for row in rows for line in (row, "")]
        path.write_text("\n".join([header, *rows]) + "\n")
        first, second = (14, 146) if blank else (8, 74)
        with pytest.raises(GridParseError, match=rf"^lines {first} and {second}: "
                                                 rf"site \(41\.0, 60\.0\) is listed twice "
                                                 rf"in epoch 0$"):
            load_grid_dataset(path, K=4)

    def test_same_site_in_two_epochs_is_not_a_repeat(self, tmp_path):
        stream = load_grid_dataset(write_grid(tmp_path / "g.csv", nlat=6, nlon=6), K=4)
        assert [len(stream.eval_inputs[t]) for t in stream.epochs] == [36, 36]

    def test_blank_body_has_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("lat,lon,t,value\n\n  \n")
        with pytest.raises(GridParseError, match="no data rows"):
            load_grid_dataset(path, K=1)


def with_batches(stream, t, rows):
    """stream with the batches of epoch t made of the given rows of its grid."""
    X, y = stream.eval_inputs[t], stream.eval_truth[t]
    batches = [StreamBatch(X=X[r], y=y[r]) for r in rows]
    return dataclasses.replace(stream, batches={**stream.batches, t: batches})


class TestBatchRows:
    """Each agent's batch is its block of the epoch's grid rows; Stream.blocks finds them."""

    def test_grid_batches_are_their_rows_of_the_grid(self, tmp_path):
        stream = load_grid_dataset(write_grid(tmp_path / "g.csv", nlat=6, nlon=4), K=4)
        for t in stream.epochs:
            offsets = stream.blocks(t)
            assert offsets == [0, 6, 12, 18, 24]
            for k, batch in enumerate(stream.batches[t]):
                assert np.array_equal(stream.eval_inputs[t][offsets[k]:offsets[k + 1]], batch.X)

    def test_blocks_keep_lat_lon_order(self, tmp_path):
        # Within its block each batch lists its sites by (lat, lon), as the
        # whole grid was listed before it was sorted by owner.
        stream = load_grid_dataset(write_grid(tmp_path / "g.csv", nlat=6, nlon=4), K=4)
        for t in stream.epochs:
            for batch in stream.batches[t]:
                assert np.array_equal(np.lexsort((batch.X[:, 1], batch.X[:, 0])),
                                      np.arange(batch.size))

    def test_batches_are_views_of_the_epoch(self, tmp_path):
        stream = load_grid_dataset(write_grid(tmp_path / "g.csv", nlat=6, nlon=4), K=4)
        for t in stream.epochs:
            for batch in stream.batches[t]:
                assert np.shares_memory(batch.X, stream.eval_inputs[t])
                assert np.shares_memory(batch.y, stream.eval_truth[t])

    def test_agent_without_sites_gets_an_empty_block(self, tmp_path):
        # Epoch 1 lacks agent 0's nine sites of the 6x6 grid.
        path = write_grid(tmp_path / "g.csv", nlat=6, nlon=6, epochs=2)
        header, *rows = path.read_text().splitlines()
        rows = [row for row in rows if not (row.split(",")[2] == "1"
                                            and float(row.split(",")[0]) < 43.0
                                            and float(row.split(",")[1]) < 63.0)]
        path.write_text("\n".join([header, *rows]) + "\n")
        stream = load_grid_dataset(path, K=4)
        assert [b.size for b in stream.batches[0]] == [9, 9, 9, 9]
        assert [b.size for b in stream.batches[1]] == [0, 9, 9, 9]
        assert stream.blocks(0) == [0, 9, 18, 27, 36]
        assert stream.blocks(1) == [0, 0, 9, 18, 27]

    def test_synthetic_streams_record_no_rows(self):
        # Synthetic batches are drawn apart from the evaluation points.
        stream = synth_stream(SynthConfig(epochs=2), 2, seed=0)
        assert [stream.blocks(t) for t in stream.epochs] == [None, None]

    def test_outliers_keep_the_rows(self, tmp_path):
        stream = load_grid_dataset(write_grid(tmp_path / "g.csv"), K=4)
        hit = inject_outliers(stream, OutlierSpec(epoch=1, fraction=1.0))
        assert not np.array_equal(hit.batches[1][0].y, stream.batches[1][0].y)
        for t in stream.epochs:
            assert hit.blocks(t) == stream.blocks(t) == [0, 4, 8, 12, 16]

    @pytest.mark.parametrize("rows", [
        [slice(12, 16), slice(8, 12), slice(4, 8), slice(0, 4)],
        [slice(0, 4), slice(4, 8), slice(8, 12)],
        [slice(0, 4), slice(4, 8), slice(8, 12), slice(12, 16), slice(16, 16)],
        [np.arange(3, -1, -1), slice(4, 8), slice(8, 12), slice(12, 16)],
    ], ids=["swapped", "missing", "out_of_range", "index_arrays"])
    def test_rows_that_do_not_give_the_batch_are_rejected(self, tmp_path, rows):
        # Batches in another agent order, one batch short, one batch too
        # many, or a block listed in another row order are not the blocks;
        # the other epoch's batches still are.
        stream = with_batches(load_grid_dataset(write_grid(tmp_path / "g.csv"), K=4), 1, rows)
        assert stream.blocks(0) == [0, 4, 8, 12, 16]
        assert stream.blocks(1) is None

    def test_overlapping_blocks_are_rejected(self, tmp_path):
        # Each batch is a block of the grid, but agent 1's block starts
        # inside agent 0's.
        stream = load_grid_dataset(write_grid(tmp_path / "g.csv"), K=2)
        assert with_batches(stream, 1, [slice(0, 8), slice(6, 16)]).blocks(1) is None

    def test_blocks_that_leave_sites_out_are_rejected(self, tmp_path):
        stream = load_grid_dataset(write_grid(tmp_path / "g.csv"), K=2)
        assert with_batches(stream, 1, [slice(0, 8), slice(8, 15)]).blocks(1) is None

    def test_decreasing_owners_are_rejected(self, tmp_path):
        # Agent 0's batch takes grid row 5, which follows agent 1's row 4.
        stream = load_grid_dataset(write_grid(tmp_path / "g.csv"), K=4)
        rows = [[0, 1, 2, 3, 5], [4, 6, 7], slice(8, 12), slice(12, 16)]
        assert with_batches(stream, 1, rows).blocks(1) is None


class TestSynthStream:
    def test_same_seed_identical(self):
        cfg = SynthConfig(epochs=3, batch_size=5)
        a = synth_stream(cfg, 2, seed=9)
        b = synth_stream(cfg, 2, seed=9)
        for t in a.epochs:
            for k in range(2):
                assert np.array_equal(a.batches[t][k].X, b.batches[t][k].X)
                assert np.array_equal(a.batches[t][k].y, b.batches[t][k].y)
        assert np.array_equal(a.truth["theta"], b.truth["theta"])

    def test_different_seeds_differ(self):
        cfg = SynthConfig(epochs=2, batch_size=5)
        a = synth_stream(cfg, 1, seed=0)
        b = synth_stream(cfg, 1, seed=1)
        assert not np.array_equal(a.batches[0][0].y, b.batches[0][0].y)

    def test_zero_drift_matches_static_bitwise(self):
        base = dict(epochs=4, batch_size=6, drift_scale=0.0)
        static = synth_stream(SynthConfig(kind="static_gp", **base), 2, seed=3)
        drifting = synth_stream(SynthConfig(kind="drifting_gp", **base), 2, seed=3)
        for t in static.epochs:
            for k in range(2):
                assert np.array_equal(static.batches[t][k].y, drifting.batches[t][k].y)
        assert np.array_equal(static.truth["theta"], drifting.truth["theta"])

    def test_drift_changes_theta_over_time(self):
        cfg = SynthConfig(kind="drifting_gp", epochs=5, batch_size=4, drift_scale=0.1)
        stream = synth_stream(cfg, 1, seed=4)
        theta = stream.truth["theta"]
        assert not np.array_equal(theta[0], theta[4])
        # static truth is constant
        static = synth_stream(SynthConfig(kind="static_gp", epochs=5, batch_size=4), 1, seed=4)
        assert np.array_equal(static.truth["theta"][0], static.truth["theta"][4])

    def test_truth_recovery_with_known_basis(self):
        # With the generating basis and near-zero noise, the posterior mean
        # recovers theta* to high precision.  Pointwise weight recovery needs
        # the sampled frequencies to be well separated over the unit input
        # interval (near-equal frequencies make sin/cos pairs numerically
        # collinear and theta* unidentifiable), so the lengthscale is small
        # and the seed is one whose feature Gram is well conditioned
        # (smallest eigenvalue ~5e-2 over this stream's 200 inputs).
        cfg = SynthConfig(
            epochs=5, batch_size=40, spatial_dim=1,
            true_J=8, obs_variance=1e-8, prior_variance=1.0,
            lengthscale=0.05,
        )
        stream = synth_stream(cfg, 1, seed=15)
        spec = stream.truth["kernel"]
        fm = sample_frequencies(spec, cfg.true_J, stream.truth["feature_seed"])
        state = prior_state(spec, cfg.true_J)
        for t in stream.epochs:
            batch = stream.batches[t][0]
            Phi = feature_matrix(fm, batch.X)
            P, s = robust_increment(Phi, batch.y, np.ones(batch.size), cfg.obs_variance)
            state.D += P
            state.eta += s
        mu, _ = posterior_root(factorize(state))
        theta_star = stream.truth["theta"][0]
        rel_err = np.linalg.norm(mu - theta_star) / np.linalg.norm(theta_star)
        assert rel_err <= 1e-3

    def test_eval_truth_is_noiseless(self):
        cfg = SynthConfig(epochs=2, batch_size=5, num_eval_points=50)
        stream = synth_stream(cfg, 1, seed=6)
        fm = sample_frequencies(stream.truth["kernel"], cfg.true_J, stream.truth["feature_seed"])
        Phi = feature_matrix(fm, stream.eval_inputs[0])
        expected = Phi.T @ stream.truth["theta"][0]
        assert np.array_equal(stream.eval_truth[0], expected)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(kind="sine")
        with pytest.raises(ValueError):
            SynthConfig(epochs=0)
        with pytest.raises(ValueError):
            SynthConfig(drift_scale=-0.1)
        with pytest.raises(ValueError, match="static_gp stream does not drift"):
            SynthConfig(kind="static_gp", drift_scale=5.0)

    def test_empty_batches_take_a_unit_output_sd(self):
        # No observation to take the spread of: no numpy warning (an error
        # under this suite's filter), and the unit fallback.
        stream = synth_stream(SynthConfig(epochs=3, batch_size=0), 2, seed=2)
        assert all(b.size == 0 for t in stream.epochs for b in stream.batches[t])
        assert stream.output_sd == 1.0

    def test_agent_count_from_the_caller(self):
        # K is the caller's (the topology's): the stream has K batches per
        # epoch, and no agent is refused, as load_grid_dataset refuses it.
        stream = synth_stream(SynthConfig(epochs=2, batch_size=3), 5, seed=1)
        assert all(len(stream.batches[t]) == 5 for t in stream.epochs)
        with pytest.raises(ValueError, match="K must be >= 1, got 0"):
            synth_stream(SynthConfig(), 0, seed=1)


class TestInjectOutliers:
    def make_stream(self, batch_size=10):
        return synth_stream(SynthConfig(epochs=3, batch_size=batch_size), 2, seed=7)

    def test_fraction_zero_unchanged(self):
        stream = self.make_stream()
        out = inject_outliers(stream, OutlierSpec(epoch=1, fraction=0.0))
        for k in range(2):
            assert np.array_equal(out.batches[1][k].y, stream.batches[1][k].y)

    def test_full_contamination_exact_shift(self):
        stream = self.make_stream()
        spec = OutlierSpec(epoch=1, fraction=1.0, magnitude_sd=8.0, jitter=0.0)
        out = inject_outliers(stream, spec)
        for k in range(2):
            shift = out.batches[1][k].y - stream.batches[1][k].y
            assert np.allclose(shift, 8.0 * stream.output_sd, atol=1e-12)

    def test_count_follows_floor_plus_remainder(self):
        stream = self.make_stream(batch_size=100)
        spec = OutlierSpec(epoch=1, fraction=0.3, agents=(0,), seed=11)
        out = inject_outliers(stream, spec)
        changed = np.sum(out.batches[1][0].y != stream.batches[1][0].y)
        assert changed == 30  # 0.3 * 100 is integral, no Bernoulli remainder
        # untargeted agent untouched
        assert np.array_equal(out.batches[1][1].y, stream.batches[1][1].y)

    def test_fractional_count_within_one(self):
        stream = self.make_stream(batch_size=7)
        spec = OutlierSpec(epoch=0, fraction=0.5, agents=(0,), seed=3)
        out = inject_outliers(stream, spec)
        changed = np.sum(out.batches[0][0].y != stream.batches[0][0].y)
        assert changed in (3, 4)

    def test_other_epochs_untouched(self):
        stream = self.make_stream()
        out = inject_outliers(stream, OutlierSpec(epoch=1, fraction=1.0))
        assert out.batches[0] is stream.batches[0]
        assert out.batches[2] is stream.batches[2]
        assert np.array_equal(out.eval_truth[1], stream.eval_truth[1])

    def test_region_restriction(self):
        stream = self.make_stream(batch_size=50)
        region = ((0.0, 0.0), (0.5, 0.5))
        out = inject_outliers(
            stream, OutlierSpec(epoch=0, fraction=1.0, region=region, jitter=0.0)
        )
        for k in range(2):
            X, y0, y1 = stream.batches[0][k].X, stream.batches[0][k].y, out.batches[0][k].y
            inside = np.all((X >= 0.0) & (X <= 0.5), axis=1)
            assert np.all(y1[inside] != y0[inside])
            assert np.array_equal(y1[~inside], y0[~inside])

    def test_jitter_bounds(self):
        stream = self.make_stream(batch_size=200)
        out = inject_outliers(
            stream, OutlierSpec(epoch=0, fraction=1.0, magnitude_sd=8.0, jitter=0.25)
        )
        shift = (out.batches[0][0].y - stream.batches[0][0].y) / stream.output_sd
        assert np.all(shift >= 8.0 * 0.75 - 1e-9)
        assert np.all(shift <= 8.0 * 1.25 + 1e-9)

    def test_determinism(self):
        stream = self.make_stream()
        spec = OutlierSpec(epoch=1, fraction=0.5, seed=13)
        a = inject_outliers(stream, spec)
        b = inject_outliers(stream, spec)
        for k in range(2):
            assert np.array_equal(a.batches[1][k].y, b.batches[1][k].y)

    def test_validation(self):
        with pytest.raises(ValueError):
            OutlierSpec(epoch=0, fraction=1.5)
        with pytest.raises(ValueError):
            OutlierSpec(epoch=0, fraction=0.5, magnitude_sd=0.0)
        with pytest.raises(ValueError):
            OutlierSpec(epoch=0, fraction=0.5, region=((0.0, 0.0), (1.5, 1.0)))
        with pytest.raises(ValueError):
            OutlierSpec(epoch=0, fraction=0.5, region=((0.5, 0.5), (0.5, 1.0)))
        stream = self.make_stream()
        with pytest.raises(ValueError, match="epoch"):
            inject_outliers(stream, OutlierSpec(epoch=99, fraction=0.5))
        with pytest.raises(ValueError, match="agent"):
            inject_outliers(stream, OutlierSpec(epoch=0, fraction=0.5, agents=(5,)))


class TestSyntheticWeather:
    def test_table_shape_and_determinism(self):
        a = synthetic_weather_table(nlat=5, nlon=4, epochs=3, seed=2)
        b = synthetic_weather_table(nlat=5, nlon=4, epochs=3, seed=2)
        assert a.shape == (60, 4)
        assert np.array_equal(a, b)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "w.csv"
        write_synthetic_weather_csv(path, nlat=4, nlon=4, epochs=2, seed=1)
        stream = load_grid_dataset(path, K=4)
        assert all(len(stream.batches[t]) == 4 for t in stream.epochs)
        assert stream.epochs == (0, 1)
        assert sum(b.size for b in stream.batches[0]) == 16

    def test_seasonal_signal_present(self):
        rows = synthetic_weather_table(nlat=6, nlon=6, epochs=12, seed=0, noise_sd=0.1)
        by_month = rows[:, 3].reshape(12, 36).mean(axis=1)
        assert by_month.max() - by_month.min() > 5.0
