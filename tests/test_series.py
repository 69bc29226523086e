import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwxlab import (
    DegeneracyError,
    ParseError,
    PowerSpectrum,
    TimeSeries,
    ValidationError,
    load_psd_csv,
    load_strain,
    save_psd_csv,
    save_strain,
    slice_window,
    welch_psd,
)
from gwxlab import series


def make_noise(n, fs=4096.0, seed=0):
    return TimeSeries(fs, 0.0, np.random.default_rng(seed).standard_normal(n))


class TestTimeSeries:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            TimeSeries(0.0, 0.0, [1.0])
        with pytest.raises(ValidationError):
            TimeSeries(-1.0, 0.0, [1.0])
        with pytest.raises(ValidationError):
            TimeSeries(4096.0, 0.0, [])
        with pytest.raises(ValidationError):
            TimeSeries(4096.0, 0.0, [1.0, np.nan])
        with pytest.raises(ValidationError):
            TimeSeries(4096.0, np.inf, [1.0])

    def test_duration(self):
        ts = TimeSeries(4096.0, 1.0, np.zeros(4096))
        assert ts.duration == 1.0
        assert ts.times()[0] == 1.0

    def test_samples_read_only(self):
        ts = make_noise(16)
        with pytest.raises(ValueError):
            ts.samples[0] = 5.0


class TestGwxFormat:
    def test_zero_file(self, tmp_path):
        path = tmp_path / "z.gwx"
        save_strain(TimeSeries(4096.0, 0.0, np.zeros(4096)), path)
        ts = load_strain(path)
        assert ts.fs == 4096.0
        assert ts.n == 4096
        assert ts.duration == 1.0
        assert np.all(ts.samples == 0.0)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.gwx"
        lines = ["# gwx-strain v1", "# fs_hz=4096.0", "# t0_s=0.0", "# n=100"]
        lines += ["0.0"] * 99
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="sample count mismatch"):
            load_strain(path)

    def test_round_trip_bit_identical(self, tmp_path):
        ts = make_noise(512, seed=3)
        p1, p2 = tmp_path / "a.gwx", tmp_path / "b.gwx"
        save_strain(ts, p1)
        save_strain(load_strain(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_names_line(self, tmp_path):
        path = tmp_path / "bad.gwx"
        path.write_text("# gwx-strain v1\n# nope=1\n# t0_s=0\n# n=1\n0.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_strain(path)

    def test_non_numeric_sample_names_line(self, tmp_path):
        path = tmp_path / "bad.gwx"
        path.write_text(
            "# gwx-strain v1\n# fs_hz=4096.0\n# t0_s=0.0\n# n=2\n0.0\nbanana\n"
        )
        with pytest.raises(ParseError, match="line 6"):
            load_strain(path)


def write_gwx(path, body, n):
    """A gwx-text file whose header says ``n`` samples, with ``body`` after it."""
    head = f"# gwx-strain v1\n# fs_hz=4096.0\n# t0_s=0.0\n# n={n}\n"
    path.write_bytes(head.encode("ascii") + body)


class TestStreamedGwxReader:
    """gwx-text is parsed in blocks of ``_WRITE_BLOCK_ROWS`` lines as it is read."""

    values = np.linspace(-1.0, 1.0, 9000)
    samples = "".join(f"{v!r}\n" for v in values.tolist()).encode("ascii")

    @pytest.mark.parametrize("k", [0, 1, 700])
    def test_non_numeric_sample_in_a_later_block_names_its_line(self, tmp_path, k):
        rows = self.samples.splitlines(keepends=True)
        rows[series._WRITE_BLOCK_ROWS + k] = b"banana\n"
        path = tmp_path / "bad.gwx"
        write_gwx(path, b"".join(rows), len(rows))
        with pytest.raises(ParseError, match=rf"^line {8197 + k}: non-numeric sample 'banana'$"):
            load_strain(path)

    @pytest.mark.parametrize("n, held", [(9000, 8999), (9000, 9001), (8192, 8193),
                                         (8193, 8192), (1, 9000), (9000, 0)])
    def test_count_mismatch_gives_the_true_count(self, tmp_path, n, held):
        path = tmp_path / "bad.gwx"
        write_gwx(path, b"0.5\n" * held, n)
        with pytest.raises(ParseError, match=f"header says n={n}, file holds {held} samples"):
            load_strain(path)

    @pytest.mark.parametrize("n", ["1000000000000", "-1", str(2**63)])
    def test_header_count_is_not_trusted_before_the_samples(self, tmp_path, n):
        path = tmp_path / "bad.gwx"
        write_gwx(path, self.samples, n)
        with pytest.raises(ParseError, match=f"header says n={n}, file holds 9000 samples"):
            load_strain(path)

    def test_non_ascii_byte_in_the_body(self, tmp_path):
        path = tmp_path / "bad.gwx"
        write_gwx(path, self.samples + "0.25\u00b5\n".encode("utf-8"), 9001)
        with pytest.raises(ParseError, match="bad.gwx: not an ASCII text file"):
            load_strain(path)

    @pytest.mark.parametrize("blanks", [1, 2, series._WRITE_BLOCK_ROWS + 3])
    def test_blank_lines_may_follow_the_last_sample(self, tmp_path, blanks):
        path = tmp_path / "x.gwx"
        write_gwx(path, self.samples + b"\n" * blanks, 9000)
        assert load_strain(path).samples.tobytes() == self.values.tobytes()

    @pytest.mark.parametrize("tail, text", [(b"\n0.5\n", ""), (b"\n" * 9000 + b"0.5\n", ""),
                                            (b"\n \n", ""), (b"\n0.5", ""), (b" \n", " ")],
                             ids=["sample", "sample-a-block-later", "spaces", "unterminated",
                                  "spaces-first"])
    def test_a_blank_line_before_anything_but_blank_lines_is_refused(self, tmp_path, tail, text):
        path = tmp_path / "bad.gwx"
        write_gwx(path, self.samples + tail, 9000)
        with pytest.raises(ParseError, match=f"^line 9005: non-numeric sample '{text}'$"):
            load_strain(path)

    def test_32s_read_peaks_below_4_mib(self, tmp_path):
        # reading the file whole and splitting it into lines peaked at 12.6 MiB
        path = tmp_path / "x.gwx"
        save_strain(make_noise(131072, seed=4), path)
        load_strain(path)
        tracemalloc.start()
        try:
            ts = load_strain(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ts.n == 131072 and not ts.samples.flags.writeable
        assert peak < 4 * 2**20


class TestGwxRoundTripProperty:
    """Any finite float64 samples, fs and t0 survive save/load bit for bit."""

    edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             1.7976931348623157e308, -1.7976931348623157e308])
    finite = st.one_of(edges, st.floats(allow_nan=False, allow_infinity=False))

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(finite, min_size=1, max_size=64),
        fs=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        t0=finite,
    )
    def test_bit_exact(self, samples, fs, t0):
        ts = TimeSeries(fs, t0, samples)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.gwx")
            save_strain(ts, path)
            back = load_strain(path)
        assert np.float64(back.fs).tobytes() == np.float64(fs).tobytes()
        assert np.float64(back.t0).tobytes() == np.float64(t0).tobytes()
        assert back.samples.tobytes() == ts.samples.tobytes()  # sign of zero included


def csv_oracle(header, rows) -> bytes:
    """The row-by-row CSV writer the column-wise one replaced."""
    return (",".join(header) + "\n"
            + "".join(",".join(map(series._format_cell, row)) + "\n" for row in rows)
            ).encode("ascii")


def gwx_oracle(ts) -> bytes:
    """The sample-by-sample gwx-text writer the block-wise one replaced."""
    head = f"# gwx-strain v1\n# fs_hz={ts.fs!r}\n# t0_s={ts.t0!r}\n# n={ts.n}\n"
    return (head + "".join(f"{float(v)!r}\n" for v in ts.samples)).encode("ascii")


float_edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 1.0, -1.0,
                               1.7976931348623157e308, -1.7976931348623157e308])
finite_floats = st.one_of(float_edges, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def csv_tables(draw):
    """Columns of one length: float64 arrays, Python floats with gaps (None),
    ints, numpy ints and booleans, some passed twice."""
    n = draw(st.integers(0, 40))
    cells = {
        "f64": st.floats(allow_nan=False, allow_infinity=False) | float_edges,
        "obj": st.none() | st.booleans() | st.integers(-10**12, 10**12) | finite_floats,
        "int": st.integers(-2**62, 2**62),
        "bool": st.booleans(),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        values = draw(st.lists(cells[kind], min_size=n, max_size=n))
        if kind == "f64":
            columns.append(np.array(values, dtype=np.float64))
        elif kind == "int" and draw(st.booleans()):
            columns.append(np.array(values, dtype=np.int64))
        else:
            columns.append(values)
    # the same column object again, as ``rho_reweighted`` is ``rho`` unreweighted
    columns += [columns[j] for j in draw(st.lists(st.integers(0, len(columns) - 1),
                                                  max_size=2))]
    return [f"c{j}" for j in range(len(columns))], columns


class TestColumnCodec:
    """The block-wise, column-wise writers give the bytes of the row-wise ones."""

    @settings(max_examples=50, deadline=None)
    @given(table=csv_tables(), block=st.integers(1, 7))
    def test_csv_matches_row_oracle(self, table, block):
        header, columns = table
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(series, "_WRITE_BLOCK_ROWS", block):
            path = os.path.join(tmp, "t.csv")
            series._write_csv(path, header, columns)
            with open(path, "rb") as fh:
                got = fh.read()
        assert got == csv_oracle(header, zip(*columns))

    @settings(max_examples=50, deadline=None)
    @given(samples=st.lists(finite_floats, min_size=1, max_size=40),
           t0=finite_floats, block=st.integers(1, 7))
    def test_gwx_matches_sample_oracle(self, samples, t0, block):
        ts = TimeSeries(4096.0, t0, samples)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(series, "_WRITE_BLOCK_ROWS", block):
            path = os.path.join(tmp, "x.gwx")
            save_strain(ts, path)
            with open(path, "rb") as fh:
                got = fh.read()
        assert got == gwx_oracle(ts)


class TestSliceWindow:
    def test_event_duration_slice(self):
        ts = make_noise(32 * 4096)
        win = slice_window(ts, 16.0, 0.2)
        assert win.n == round(0.2 * 4096)
        assert win.t0 == pytest.approx(16.0, abs=1e-9)

    def test_identity(self):
        ts = make_noise(1024)
        win = slice_window(ts, ts.t0, ts.duration)
        np.testing.assert_array_equal(win.samples, ts.samples)

    def test_beyond_end(self):
        ts = make_noise(1024)
        with pytest.raises(ValidationError):
            slice_window(ts, 0.2, 0.2)

    def test_composition(self):
        ts = make_noise(8192, seed=4)
        once = slice_window(ts, 0.5, 1.0)
        twice = slice_window(slice_window(ts, 0.25, 1.5), 0.5, 1.0)
        assert twice.t0 == once.t0
        np.testing.assert_array_equal(twice.samples, once.samples)


class TestWelchPsd:
    def test_zero_signal(self):
        psd = welch_psd(TimeSeries(4096.0, 0.0, np.zeros(16384)), segment_len=2048)
        assert np.all(psd.values == 0.0)

    def test_white_noise_level(self):
        # 128 averaged segments; one-sided density of unit-variance noise is 2/fs
        fs = 4096.0
        ts = make_noise(int(fs) * 64, fs=fs, seed=12)
        psd = welch_psd(ts, segment_len=2048)
        f = psd.frequencies()
        level = np.mean(psd.values[(f >= 50.0) & (f <= 1900.0)])
        assert level == pytest.approx(2.0 / fs, rel=0.10)

    def test_tone_peak_bin(self):
        fs = 4096.0
        t = np.arange(int(8 * fs)) / fs
        psd = welch_psd(TimeSeries(fs, 0.0, np.sin(2 * np.pi * 64 * t)), segment_len=4096)
        assert psd.frequencies()[np.argmax(psd.values)] == pytest.approx(64.0, abs=psd.df)

    def test_sign_flip_invariance(self):
        ts = make_noise(8192, seed=13)
        a = welch_psd(ts, segment_len=1024)
        b = welch_psd(ts.with_samples(-ts.samples), segment_len=1024)
        np.testing.assert_array_equal(a.values, b.values)

    def test_segment_longer_than_series(self):
        with pytest.raises(ValidationError):
            welch_psd(make_noise(512), segment_len=1024)


def scipy_welch(ts, segment_len):
    import scipy.signal

    return scipy.signal.welch(ts.samples, fs=ts.fs, window="blackman", nperseg=segment_len,
                              noverlap=int(round(0.5 * segment_len)), detrend=False,
                              return_onesided=True, scaling="density")[1]


class TestWelchOracle:
    """The numpy Welch estimate against ``scipy.signal.welch``."""

    @pytest.mark.parametrize("n, segment_len", [
        (131072, 16384), (131072, 4096), (9000, 1001), (8192, 1024), (7, 2), (2, 2),
        (3, 3), (1001, 1001), (4096, 4096), (77777, 1000),
    ], ids=lambda v: str(v))
    @pytest.mark.parametrize("offset", [0.0, 5.0], ids=["zero-mean", "dc-offset"])
    def test_matches_scipy(self, n, segment_len, offset):
        ts = make_noise(n, seed=n + segment_len)
        ts = ts.with_samples(ts.samples + offset)
        want = scipy_welch(ts, segment_len)
        got = welch_psd(ts, segment_len=segment_len).values
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_bytes_match_scipy_on_the_readme_segment(self):
        """Same operations in scipy's order: ``psd.csv`` keeps scipy's bytes."""
        ts = make_noise(32 * 4096, seed=7)
        want = scipy_welch(ts, 4 * 4096)
        assert welch_psd(ts, segment_len=4 * 4096).values.tobytes() == want.tobytes()


class TestMedian:
    """``series._median`` against ``np.median``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=1, max_size=60),
           st.booleans())
    def test_matches_np_median(self, values, even):
        if even and len(values) % 2:
            values = values[:-1] or values * 2
        values = np.array(values)
        with np.errstate(over="ignore"):  # two middle values near the float limit
            assert np.float64(series._median(values)).tobytes() == \
                np.median(values).tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 1000, 1001])
    def test_ties_and_sizes(self, size):
        values = np.random.default_rng(size).integers(0, 5, size) * 0.1
        assert series._median(values) == float(np.median(values))


class TestPowerSpectrum:
    def test_nonnegative_enforced(self):
        with pytest.raises(ValidationError):
            PowerSpectrum(df=1.0, values=[1.0, -2.0])

    def test_interpolation_covers_grid(self):
        psd = PowerSpectrum(df=4.0, values=np.linspace(1.0, 2.0, 65))
        grid = psd.interpolated(df=1.0, n_bins=400)
        assert grid.size == 400
        assert np.all(grid > 0)
        # clamped at the upper edge
        assert grid[-1] == pytest.approx(psd.values[-1], rel=1e-9)

    def test_log_interpolation_between_bins(self):
        psd = PowerSpectrum(df=2.0, values=np.array([1.0, 1.0, 100.0, 1.0]))
        grid = psd.interpolated(df=1.0, n_bins=7)
        # halfway between 1 and 100 in log space is 10
        assert grid[3] == pytest.approx(10.0, rel=1e-9)

    def test_floored_raises_low_bins_to_the_floor(self):
        psd = PowerSpectrum(df=1.0, values=[0.0, 1e-30, 2.0, 4.0, 6.0])
        grid = psd.floored(df=1.0, n_bins=5)
        # median of the positive bins is 3.0; interpolation leaves them as given
        floor = 1e-12 * 3.0
        np.testing.assert_allclose(grid, [floor, floor, 2.0, 4.0, 6.0], rtol=1e-12)

    def test_floored_rejects_all_zero_and_nan_grids(self, monkeypatch):
        with pytest.raises(DegeneracyError):
            PowerSpectrum(df=1.0, values=np.zeros(8)).floored(df=1.0, n_bins=8)
        psd = PowerSpectrum(df=1.0, values=np.ones(3))
        monkeypatch.setattr(PowerSpectrum, "interpolated",
                            lambda self, df, n_bins: np.array([1.0, np.nan, 2.0]))
        with pytest.raises(DegeneracyError):
            psd.floored(df=1.0, n_bins=3)

    def test_csv_round_trip(self, tmp_path):
        psd = PowerSpectrum(df=0.5, values=np.abs(np.random.default_rng(3).standard_normal(32)))
        path = tmp_path / "p.csv"
        save_psd_csv(psd, path)
        back = load_psd_csv(path)
        assert back.df == psd.df
        np.testing.assert_array_equal(back.values, psd.values)

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "p.csv"
        save_psd_csv(PowerSpectrum(df=0.5, values=[1e-46, 2.5, 0.0]), path)
        assert path.read_bytes() == b"f_hz,psd\n0.0,1e-46\n0.5,2.5\n1.0,0.0\n"

    @pytest.mark.parametrize("row, columns", [("0.5,1.0,9", 3), ("0.5", 1)])
    def test_csv_rows_need_two_columns(self, tmp_path, row, columns):
        path = tmp_path / "p.csv"
        path.write_text(f"f_hz,psd\n0.0,1.0\n{row}\n1.0,1.0\n")
        with pytest.raises(ParseError,
                           match=f"line 3: expected two columns 'f_hz,psd', got {columns}"):
            load_psd_csv(path)
