import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecnn import dataset
from ecnn.cli import cli
from ecnn.dataset import (
    Dataset,
    fit_normalize,
    load_csv,
    save_csv,
    split,
    synth_generate,
)
from ecnn.errors import ConfigError, DataError
from ecnn.util import atomic_writer
from reference import invert, read_truth, truth_labels


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_header_file_parses(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1.5,2.0,0\n3.0,4.0,1\n0.5,0.25,0\n")
        d = load_csv(path, "label")
        assert d.n == 3 and d.m == 2
        assert d.feature_names == ["a", "b"]
        np.testing.assert_array_equal(d.y, [0, 1, 0])
        np.testing.assert_allclose(d.x[:, 0], [1.5, 3.0, 0.5])

    def test_headerless_file_synthesizes_names(self, tmp_path):
        path = _write(tmp_path, "1,2,0\n3,4,1\n")
        d = load_csv(path, 2)
        assert d.feature_names == ["f0", "f1"]
        np.testing.assert_array_equal(d.y, [0, 1])

    def test_target_by_index_with_header(self, tmp_path):
        path = _write(tmp_path, "label,a,b\n1,1.0,2.0\n0,3.0,4.0\n")
        d = load_csv(path, 0)
        assert d.feature_names == ["a", "b"]
        np.testing.assert_array_equal(d.y, [1, 0])

    def test_bad_target_value_names_row(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,2,0\n3,4,2\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, "label")

    def test_unparseable_cell_reports_location(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,oops,0\n")
        with pytest.raises(DataError, match="oops"):
            load_csv(path, "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv", "label")

    def test_too_few_features(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,0\n2,1\n")
        with pytest.raises(DataError, match="2 feature"):
            load_csv(path, "label")

    def test_missing_target_name(self, tmp_path):
        path = _write(tmp_path, "a,b,c\n1,2,0\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(path, "label")

    def test_round_trip_identity(self, tmp_path):
        d, _ = synth_generate(50, 5, [0, 2], 0.3, 0.1, seed=11)
        path = tmp_path / "rt.csv"
        save_csv(d, path)
        d2 = load_csv(path, "target")
        np.testing.assert_array_equal(d.x, d2.x)
        np.testing.assert_array_equal(d.y, d2.y)
        assert d.feature_names == d2.feature_names


def _reference_load_csv(path, target_column):
    """The cell-by-cell loader that numpy's reader replaced, kept as it was
    so that the two can be run on the same files."""

    def _parse_cell(cell: str) -> float:
        return float(cell.strip())

    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            lines = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from None
    if not lines:
        raise DataError(f"dataset file is empty: {path}")
    rows = [row for _, row in lines]

    width = len(rows[0])
    if width < 3:
        raise DataError(f"need at least 2 feature columns plus a target, got {width} columns")

    def _is_number(cell: str) -> bool:
        try:
            _parse_cell(cell)
            return True
        except ValueError:
            return False

    has_header = not all(_is_number(c) for c in rows[0])
    header = [c.strip() for c in rows[0]] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise DataError(f"no data rows in {path}")

    if isinstance(target_column, int):
        target_idx = target_column
        if not 0 <= target_idx < width:
            raise DataError(f"target column index {target_idx} out of range for {width} columns")
    else:
        if header is None:
            raise DataError(
                f"target column {target_column!r} requested by name but {path} has no header"
            )
        try:
            target_idx = header.index(target_column)
        except ValueError:
            raise DataError(f"target column {target_column!r} not found in header {header}")

    feature_idx = [c for c in range(width) if c != target_idx]
    if header is not None:
        feature_names = [header[c] for c in feature_idx]
    else:
        feature_names = [f"f{k}" for k in range(len(feature_idx))]

    x = np.empty((len(data_rows), len(feature_idx)), dtype=np.float64)
    y = np.empty(len(data_rows), dtype=np.int64)
    for r, row in enumerate(data_rows):
        line_no = lines[r + 1 if has_header else r][0]
        if len(row) != width:
            raise DataError(f"row at line {line_no} has {len(row)} cells, expected {width}")
        for k, c in enumerate(feature_idx):
            try:
                x[r, k] = _parse_cell(row[c])
            except ValueError:
                name = header[c] if header else f"column {c}"
                raise DataError(
                    f"unparseable value {row[c]!r} at line {line_no}, {name}"
                )
        try:
            tv = _parse_cell(row[target_idx])
        except ValueError:
            raise DataError(f"unparseable target {row[target_idx]!r} at line {line_no}")
        if tv not in (0.0, 1.0):
            raise DataError(f"target value {row[target_idx]!r} outside {{0,1}} at line {line_no}")
        y[r] = int(tv)

    return Dataset(x, y, feature_names)


def _reference_csv_text(d):
    """What ``save_csv`` wrote when it formatted one element at a time."""
    lines = [",".join([*d.feature_names, "target"])]
    for i in range(d.n):
        cells = [repr(float(v)) for v in d.x[i]]
        cells.append(str(int(d.y[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _outcome(loader, path, target):
    """What a loader makes of a file: its arrays and names, or its error."""
    try:
        d = loader(path, target)
    except DataError as exc:
        return "DataError", str(exc)
    return d.x.tobytes(), d.y.tolist(), d.feature_names


_finite = st.floats(allow_nan=False, allow_infinity=False)
# the last seven sit at or near the bounds of the range where orjson writes repr's text
_edge = st.sampled_from([
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    1e-4, float(np.nextafter(1e-4, 0)), -1e-4, 1e16, float(np.nextafter(1e16, 0)), 9999999999999998.0, 1e-5,
])
_spelled = st.sampled_from(["1e5", " 2.50 ", "+3", ".5", '"1.5"', '" -4 "', "\t7E-3", "-0", "1.", "1E+2"])
_feature_cell = st.one_of(
    (_finite | _edge).map(repr),
    (_finite | _edge).map(lambda v: f'"{v!r}"'),
    (_finite | _edge).map(lambda v: f" {v!r}  "),
    _spelled,
)
_target_cell = st.sampled_from(["0", "1", "1.0", "-0.0", '"1"', " 0 ", "+1", "0e0"])
# cells only Python's float() takes; the loader rejects them
_float_only = st.sampled_from(["1_000", "\u0661", "2\u0665", "\uff17"])
_name = st.text(st.sampled_from("abcxyz\u00e4\u00df"), min_size=1, max_size=4)
# any text, or pieces that spell numbers, white space, quotes and line ends
_header_name = st.text(max_size=6) | st.lists(
    st.sampled_from(["1", "nan", "-0", "e5", " ", "\t", "\xa0", "\n", "\r", '"', ",", "a", "target"]), max_size=3
).map("".join)
_number_name = st.sampled_from(["0", "-1", "2.5", "1e5", "nan", "inf", ".5"])


@st.composite
def _csv_files(draw):
    """A CSV text, the target to ask for, and the expected error of a cell
    only Python's float() takes (None when there is none)."""
    m = draw(st.integers(1, 5))
    width = m + 1
    n = draw(st.integers(1, 6))
    rows = [[draw(_feature_cell) for _ in range(width)] for _ in range(n)]
    target_idx = draw(st.integers(0, width - 1))
    for row in rows:
        row[target_idx] = draw(_target_cell)
    header = [f"{draw(_name)}{c}" for c in range(width)] if draw(st.booleans()) else None

    expected = None
    mutation = draw(st.sampled_from(["none", "none", "short row", "bad cell", "bad target",
                                     "empty body", "float only"]))
    r = draw(st.integers(0, n - 1))
    if mutation == "short row":
        rows[r].pop()
    elif mutation == "bad cell":
        rows[r][draw(st.integers(0, width - 1))] = draw(st.sampled_from(["x1", "", "1 2", "0x10"]))
    elif mutation == "bad target":
        rows[r][target_idx] = draw(st.sampled_from(["2", "0.5", "nan", "-1", "inf"]))
    elif mutation == "empty body":
        rows = []
    elif mutation == "float only" and width >= 3:
        c = draw(st.integers(0, width - 1))
        cell = draw(_float_only)
        rows[r][c] = cell
        if c == target_idx:
            expected = f"unparseable target {cell!r} at line"
        else:
            expected = f"unparseable value {cell!r} at line"
        name = header[c] if header else f"column {c}"
        expected = (expected, r + (1 if header else 0), name if c != target_idx else None)

    lines = ([",".join(header)] if header else []) + [",".join(row) for row in rows]
    blank = draw(st.lists(st.integers(0, len(lines)), max_size=3))
    for at in sorted(blank, reverse=True):
        lines.insert(at, "")
    if expected is not None:
        # the bad row's index among the lines, then its physical line number
        start, at_line, name = expected
        expected = (start, at_line + 1 + sum(at <= at_line for at in blank), name)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    target = header[target_idx] if header and draw(st.booleans()) else target_idx
    return text, target, expected


class TestNamesNeedingQuotes:
    def test_save_csv_round_trip(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        names = ['a,b', 'c', 'd"e', "f\rg", "h\ni"]
        d = Dataset(rng.normal(size=(6, 5)), np.array([0, 1] * 3), names)
        path = tmp_path / "quoted.csv"
        save_csv(d, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [*names, "target"]
        assert all(len(row) == 6 for row in rows)
        # a quoted header, even one spanning two lines, keeps the file on the table path
        _no_row_loop(monkeypatch)
        back = load_csv(path, "target")
        assert back.feature_names == names
        np.testing.assert_array_equal(back.x, d.x)
        np.testing.assert_array_equal(back.y, d.y)


    def test_feature_named_like_the_target_is_refused(self, tmp_path):
        d = Dataset(np.array([[3.0, 1.0], [4.0, 2.0]]), np.array([0, 1]), ["target", "b"])
        path = tmp_path / "same.csv"
        with pytest.raises(DataError, match="'target' is also the target column's name"):
            save_csv(d, path)
        assert not path.exists()

    def test_target_name_on_two_header_cells_is_refused(self, tmp_path):
        path = _write(tmp_path, "target,b,target\n3.0,1.0,0\n4.0,2.0,1\n")
        with pytest.raises(DataError, match="'target' names 2 columns"):
            load_csv(path, "target")
        assert load_csv(path, 2).feature_names == ["target", "b"]

    @pytest.mark.parametrize("names", [[" a", "b"], ["a", "b "], ["a", "\tb"]])
    def test_names_with_outer_white_space_are_refused(self, tmp_path, names):
        d = Dataset(np.array([[3.0, 1.0], [4.0, 2.0]]), np.array([0, 1]), names)
        with pytest.raises(DataError, match="leading or trailing white space"):
            save_csv(d, tmp_path / "space.csv")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        names=st.lists(_header_name, min_size=2, max_size=4) | st.lists(_number_name, min_size=2, max_size=4),
        rows=st.integers(1, 3),
        values=st.lists(_finite | _edge, min_size=12, max_size=12),
        labels=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    )
    def test_every_accepted_header_reads_back(self, tmp_path, names, rows, values, labels):
        # load_csv needs 2 features and a row; within that, any names that
        # save_csv writes come back as they were, with the same arrays
        x = np.array(values[: rows * len(names)], dtype=np.float64).reshape(rows, len(names))
        d = Dataset(x, np.array(labels[:rows], dtype=np.int64), names)
        path = tmp_path / "names.csv"
        path.unlink(missing_ok=True)
        try:
            save_csv(d, path)
        except DataError:
            assert not path.exists()
            return
        back = load_csv(path, "target")
        assert back.feature_names == names
        assert back.x.tobytes() == d.x.tobytes()
        assert back.y.tobytes() == d.y.tobytes()


class TestAgainstReferenceLoader:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_csv_files())
    def test_same_arrays_or_same_error(self, tmp_path, case):
        text, target, expected = case
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(load_csv, path, target)
        if expected is None:
            assert got == _outcome(_reference_load_csv, path, target)
            return
        start, line, name = expected
        assert got[0] == "DataError"
        assert got[1].startswith(start), got[1]
        # blank lines before the bad row count: the line is the file's own
        assert f"at line {line}," in got[1] or got[1].endswith(f"at line {line}")
        if name is not None:
            assert got[1].endswith(f", {name}")

    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "\u0662.5"])
    def test_cells_only_float_takes_name_line_and_column(self, tmp_path, cell):
        path = _write(tmp_path, f"a,b,label\n1,2,0\n3,{cell},1\n")
        with pytest.raises(DataError, match=f"unparseable value '{cell}' at line 3, b$"):
            load_csv(path, "label")

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        shape=st.tuples(st.integers(0, 5), st.integers(1, 4)),
        values=st.lists(_finite | _edge, min_size=20, max_size=20),
        labels=st.lists(st.integers(0, 1), min_size=5, max_size=5),
    )
    def test_save_csv_same_bytes_as_per_element_formatting(self, tmp_path, shape, values, labels):
        n, m = shape
        x = np.array(values[: n * m], dtype=np.float64).reshape(n, m)
        d = Dataset(x, np.array(labels[:n], dtype=np.int64), [f"c{j}" for j in range(m)])
        path = tmp_path / "out.csv"
        save_csv(d, path)
        assert path.read_bytes() == _reference_csv_text(d).encode("utf-8")


def _no_row_loop(monkeypatch):
    """Make ``load_csv`` fail if a file takes the row loop."""

    def refuse(path, target_column):
        raise AssertionError(f"{path} took the row loop")

    monkeypatch.setattr(dataset, "_load_rows", refuse)


def _mixed_rows(seed):
    """50 rows of 9 columns: ordinary values, and every third row holding
    one outside 1e-4 <= |x| < 1e16, which save_csv writes with repr, in its
    first or last column."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(50, 9))
    exotic = [1e-5, 1e16, -2.5e-300, 5e-324, -1.7976931348623157e308, float(np.nextafter(1e-4, 0)), 1e22]
    for r in range(0, 50, 3):
        x[r, 0 if r % 2 else -1] = exotic[r % len(exotic)]
    return Dataset(x, rng.integers(0, 2, 50), [f"c{j}" for j in range(9)])


class TestSaveCsvBytes:
    @pytest.mark.parametrize("chunk", [1, 200, 4000, dataset._CHUNK_BYTES])
    def test_mixed_rows_same_bytes_at_every_chunk_size(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk)
        d = _mixed_rows(0)
        path = tmp_path / "mixed.csv"
        save_csv(d, path)
        assert path.read_bytes() == _reference_csv_text(d).encode("utf-8")
        _no_row_loop(monkeypatch)
        back = load_csv(path, "target")
        assert back.x.tobytes() == d.x.tobytes() and back.y.tobytes() == d.y.tobytes()

    def test_random_bit_patterns_same_bytes_and_same_bits_back(self, tmp_path, monkeypatch):
        # 200,000 finite doubles. A quarter of the rows are raw bit patterns,
        # nearly all outside orjson's repr range; the others have exponents
        # from 2**-14 to 2**53, across 1e-4 and 1e16. Then one cell in a
        # hundred is made subnormal and one in two hundred a signed zero.
        rng = np.random.default_rng(20)
        bits = np.frombuffer(rng.bytes(8 * 200_000), dtype=np.uint64).reshape(25_000, 8).copy()
        exponent = np.uint64(0x7FF) << np.uint64(52)
        ranged = rng.random(25_000) < 0.75
        powers = rng.integers(1009, 1077, size=(int(ranged.sum()), 8)).astype(np.uint64)
        bits[ranged] = (bits[ranged] & ~exponent) | (powers << np.uint64(52))
        bits[(bits & exponent) == exponent] &= ~(np.uint64(1) << np.uint64(62))
        draw = rng.random(bits.shape)
        bits[draw < 0.01] &= ~exponent
        bits[draw > 0.995] &= np.uint64(1) << np.uint64(63)
        d = Dataset(bits.view(np.float64), rng.integers(0, 2, 25_000), [f"c{j}" for j in range(8)])
        a = np.abs(d.x)
        plain = (((a >= 1e-4) & (a < 1e16)) | (a == 0)).all(axis=1)
        assert 5_000 < plain.sum() < 20_000
        assert np.signbit(d.x[d.x == 0]).any() and ((a < 2.2250738585072014e-308) & (a > 0)).any()

        path = tmp_path / "bits.csv"
        save_csv(d, path)
        assert path.read_bytes() == _reference_csv_text(d).encode("utf-8")
        _no_row_loop(monkeypatch)
        back = load_csv(path, "target")
        assert back.x.tobytes() == d.x.tobytes() and back.y.tobytes() == d.y.tobytes()

    @pytest.mark.parametrize("noise", ["0.1", "1e300"])
    def test_synth_files_never_take_the_row_loop(self, tmp_path, monkeypatch, noise):
        args = ["synth", "--n", "300", "--m", "6", "--relevant", "0,3", "--noise-std", noise]
        result = CliRunner().invoke(cli, [*args, "--seed", "2", "--out", str(tmp_path / "task")])
        assert result.exit_code == 0, result.output
        _no_row_loop(monkeypatch)
        assert load_csv(tmp_path / "task.csv", "target").n == 300


class TestTablePath:
    """Files that load without the row loop, to the reference loader's
    bits. A file whose lines end in a lone \\r takes the row loop, which
    reads it to the same arrays."""

    @pytest.mark.parametrize("chunk", [1, 64, dataset._CHUNK_BYTES])
    @pytest.mark.parametrize("bom, text, target", [
        ("", "a,b,target\r\n1.5,-2,0\r\n3,4e-3,1\r\n", "target"),
        ("\ufeff", "a,b,target\n1.5,-2,0\n3,4e-3,1\n", "target"),
        ("", "a,b,target\n\n1.5,-2,0\n\n\n3,4e-3,1\n\n\n", "target"),
        ("", "a,b,target\r\n\r\n1.5,-2,0\r\n\r\n3,4e-3,1\r\n\r\n", "target"),
        ("", "1.5,-2,0\n3,4e-3,1\n", 2),
        ("\ufeff", "\r\n1.5,-2,0\r\n\r\n3,4e-3,1", 2),
        ("", "a,b,target\n1.5,-2,-0\n3,4e-3,1\n7,8,-0.0\n", "target"),
    ], ids=["crlf", "bom", "blank-lines", "crlf-blank-lines", "no-header", "bom-crlf-no-header", "target-minus-zero"])
    def test_same_bits_as_reference(self, tmp_path, monkeypatch, chunk, bom, text, target):
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk)
        # the reference loader does not drop a byte-order mark, so it reads the file without one
        reference = tmp_path / "reference.csv"
        reference.write_bytes(text.encode("ascii"))
        path = tmp_path / "data.csv"
        path.write_bytes((bom + text).encode("utf-8"))
        expected = _outcome(_reference_load_csv, reference, target)
        assert expected[0] != "DataError"
        _no_row_loop(monkeypatch)
        assert _outcome(load_csv, path, target) == expected


class TestLoadedBytesHash:
    """``hashes`` gets the sha256 of the file's bytes, read once on the table
    path and again by the row loop."""

    @pytest.mark.parametrize("chunk", [1, dataset._CHUNK_BYTES])
    @pytest.mark.parametrize("data, target", [
        (b"a,b,target\n1.5,-2,0\n3,4e-3,1\n", "target"),
        (b"\xef\xbb\xbf\r\n1.5,-2,0\r\n\r\n3,4e-3,1", 2),
        (b'"a","b","target"\n"1.5","-2","0"\n"3","4e-3","1"\n', "target"),
    ], ids=["table", "bom-no-header", "row-loop"])
    def test_sha256_of_the_file(self, tmp_path, monkeypatch, chunk, data, target):
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk)
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        hashes = {}
        d = load_csv(str(path), target, hashes)
        assert d.n == 2
        assert hashes == {str(path): hashlib.sha256(data).hexdigest()}


class TestAtomicWriter:
    def test_error_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"old\n")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as fh:
                fh.write(b"new\n")
                raise RuntimeError("stop")
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]


class TestJsonNumberRows:
    """Files that a reader taking each line as a JSON array, unchecked,
    gets wrong, at chunks of one line and of a few lines."""

    @pytest.mark.parametrize("chunk", [1, 64, dataset._CHUNK_BYTES])
    @pytest.mark.parametrize("text, target", [
        ("a,b,target\n-0,1,0\n2,-0,1\n", "target"),
        ("a,b,target\n1e-0,-0e0,0\n-0.0,3,-0\n", "target"),
        ("1,2,0\n1,2,0],[3,4,1\n5,6,0\n", 2),
        ("a,b,target\n1,2,0],[3,4,1\n5,6,0\n", "target"),
        ("a,b,target\n1,2,0\n   \n3,4,1\n", "target"),
        ("a,b,target\n1,2,0\n\t\n3,4,1\n", "target"),
        ("a,b,target\r1,2,0\r\r3,4,1\r", "target"),
        ("1,2,0\r3,4,1", 2),
        ("a,b,target\n1,2,0\n3,4,1e400\n", "target"),
        ("a,b,target\n1,2,NaN\n", "target"),
        ("a,b,target\n1,2,0\n3,4,Infinity\n", "target"),
        # a -0 in a later chunk than an exact 0, at every chunk size but the largest
        ("a,b,target\n0,1,0\n" + "1.25,2.5,1\n" * 8 + "2,-0,1\n", "target"),
        # zeros that JSON reads with their sign, and no integer -0
        ("a,b,target\n0,-0.0,1\n-0.0,0,0\n3,-0e0,1\n", "target"),
        # JSON takes a lone \r for white space, so these lines would parse as 3 cells
        ("a,b,target\r\n1,\r2,0\r\n3,4,1\r\n", "target"),
        ("a,b,target\n1,2,\r0\n", "target"),
        # every row one cell short, the target in the column that is missing
        ("a,b,c,target\n1,2,0\n3,4,1\n", "target"),
        ("1,2,3,0\n1,2,0\n3,4,1\n", 3),
    ])
    def test_same_outcome_as_reference(self, tmp_path, monkeypatch, chunk, text, target):
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk)
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("ascii"))
        assert _outcome(load_csv, path, target) == _outcome(_reference_load_csv, path, target)

    @pytest.mark.parametrize("chunk", [1, 64, dataset._CHUNK_BYTES])
    def test_minus_zero_keeps_its_sign(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk)
        d = load_csv(_write(tmp_path, "a,b,target\n-0,1,0\n2,-0,1\n"), "target")
        assert d.x.tolist() == [[0.0, 1.0], [2.0, 0.0]]
        assert np.signbit(d.x).tolist() == [[True, False], [False, True]]


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as Excel writes one, is not part of the
    first cell. A quoted cell sends the file to the row loop."""

    @staticmethod
    def _bom_file(tmp_path, text):
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + text).encode("utf-8"))
        return path

    @pytest.mark.parametrize("cell", ["2.5", '"2.5"'])
    def test_target_named_in_the_first_cell(self, tmp_path, cell):
        d = load_csv(self._bom_file(tmp_path, f"target,a,b\n1,{cell},3\n0,4,5\n"), "target")
        assert d.feature_names == ["a", "b"]
        assert d.x.tolist() == [[2.5, 3.0], [4.0, 5.0]] and d.y.tolist() == [1, 0]

    @pytest.mark.parametrize("cell", ["2.5", '"2.5"'])
    def test_first_feature_name(self, tmp_path, cell):
        d = load_csv(self._bom_file(tmp_path, f"a,b,target\n{cell},3,1\n4,5,0\n"), "target")
        assert d.feature_names == ["a", "b"]
        assert d.x.tolist() == [[2.5, 3.0], [4.0, 5.0]]

    @pytest.mark.parametrize("cell", ["2.5", '"2.5"'])
    def test_headerless_first_row_is_data(self, tmp_path, cell):
        d = load_csv(self._bom_file(tmp_path, f"{cell},3,1\n4,5,0\n"), 2)
        assert d.feature_names == ["f0", "f1"]
        assert d.x.tolist() == [[2.5, 3.0], [4.0, 5.0]] and d.y.tolist() == [1, 0]


class TestLineNumbers:
    def test_blank_lines_count(self, tmp_path):
        path = _write(tmp_path, "a,b,target\n1,2,0\n\n\n3,x,1\n")
        with pytest.raises(DataError, match="unparseable value 'x' at line 5, b$"):
            load_csv(path, "target")

    def test_short_row_after_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\r\n1,2,0\r\n\r\n3,1\r\n")
        with pytest.raises(DataError, match="row at line 4 has 2 cells"):
            load_csv(path, 2)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", " NaN ", "NaN", "Infinity", "1e400"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = _write(tmp_path, f"a,b,target\n1,2,0\n3,{cell},1\n")
        with pytest.raises(DataError, match=f"non-finite value '{cell}' at line 3, b$"):
            load_csv(path, "target")

    def test_non_finite_cell_without_header(self, tmp_path):
        path = _write(tmp_path, "1,2,0\n\nnan,4,1\n")
        with pytest.raises(DataError, match="non-finite value 'nan' at line 3, column 0$"):
            load_csv(path, 2)


class TestDatasetValidation:
    def test_rejects_bad_targets(self):
        with pytest.raises(DataError, match="outside"):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), ["a", "b"])

    def test_rejects_non_finite(self):
        x = np.zeros((2, 2))
        x[1, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            Dataset(x, np.array([0, 1]), ["a", "b"])

    def test_require_both_classes(self):
        x = np.zeros((3, 2))
        Dataset(x, np.array([0, 1, 0]), ["a", "b"]).require_both_classes("all rows")
        for y in ([1, 1, 1], [0, 0, 0]):
            with pytest.raises(DataError, match="^all rows contains a single class$"):
                Dataset(x, np.array(y), ["a", "b"]).require_both_classes("all rows")


class TestNormalize:
    def test_simple_column_population_std(self):
        # oracle: (1,2,3) has mean 2 and population variance 2/3
        d = Dataset(np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]]), np.array([0, 1, 0]), ["a", "b"])
        dn, params = fit_normalize(d)
        expected = 1.0 / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(dn.x[:, 0], [-expected, 0.0, expected], atol=1e-12)
        np.testing.assert_allclose(expected, 1.224744871391589, atol=1e-12)

    def test_constant_column_flagged_and_zeroed(self):
        d = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.array([0, 1, 0]), ["a", "b"])
        dn, params = fit_normalize(d)
        np.testing.assert_array_equal(dn.x[:, 0], [0.0, 0.0, 0.0])
        assert params.constant[0] and not params.constant[1]

    def test_fit_set_has_zero_mean_unit_variance(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(3.0, 7.0, size=(40, 4)), rng.integers(0, 2, 40), [f"f{i}" for i in range(4)])
        dn, _ = fit_normalize(d)
        assert np.all(np.abs(dn.x.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(dn.x.var(axis=0) - 1.0) < 1e-6)

    def test_idempotent_on_normalized_data(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, 30), ["a", "b", "c"])
        dn, _ = fit_normalize(d)
        dn2, _ = fit_normalize(dn)
        np.testing.assert_allclose(dn.x, dn2.x, atol=1e-9)

    def test_denormalize_round_trip(self):
        rng = np.random.default_rng(5)
        x = rng.normal(10.0, 4.0, size=(25, 3))
        x[:, 1] = 7.0  # constant column
        d = Dataset(x, rng.integers(0, 2, 25), ["a", "b", "c"])
        dn, params = fit_normalize(d)
        np.testing.assert_allclose(invert(params, dn.x), x, atol=1e-9)

    def test_apply_matches_fit_output(self):
        rng = np.random.default_rng(6)
        d = Dataset(rng.normal(2, 3, size=(20, 3)), rng.integers(0, 2, 20), ["a", "b", "c"])
        dn, params = fit_normalize(d)
        np.testing.assert_allclose(params.apply(d.x), dn.x, atol=1e-12)

    def test_ordinary_columns_keep_plain_mean_and_std(self):
        rng = np.random.default_rng(7)
        x = rng.normal(1e150, 3e149, size=(50, 3))
        x[:, 1] = rng.normal(size=50)
        d = Dataset(x, rng.integers(0, 2, 50), ["a", "b", "c"])
        dn, params = fit_normalize(d)
        assert params.mean.tobytes() == x.mean(axis=0).tobytes()
        assert params.std.tobytes() == x.std(axis=0).tobytes()
        assert dn.x.tobytes() == ((x - x.mean(axis=0)) / x.std(axis=0)).tobytes()

    def test_column_near_the_float_limit(self):
        # the squares of deviations near 1e300 overflow a plain std
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 2))
        x[:, 0] *= 1e300
        d = Dataset(x, rng.integers(0, 2, 60), ["big", "b"])
        with np.errstate(over="ignore"):
            assert not np.isfinite(x[:, 0].std())
        dn, params = fit_normalize(d)
        assert np.isfinite(params.mean).all() and np.isfinite(params.std).all()
        assert not params.constant.any()
        assert params.std[1] == x[:, 1].std()
        assert params.std[0] == pytest.approx(np.std(x[:, 0] / 1e300) * 1e300, rel=1e-12)
        assert abs(dn.x[:, 0].mean()) < 1e-9 and abs(dn.x[:, 0].var() - 1.0) < 1e-9
        np.testing.assert_allclose(invert(params, dn.x)[:, 0] / 1e300, x[:, 0] / 1e300, atol=1e-9)

    def test_constant_column_near_the_float_limit_flagged(self):
        x = np.array([[1.7e308, 1.0], [1.7e308, 2.0], [1.7e308, 3.0]])
        dn, params = fit_normalize(Dataset(x, np.array([0, 1, 0]), ["a", "b"]))
        assert params.constant.tolist() == [True, False]
        assert not dn.x[:, 0].any()

    def test_range_too_wide_to_normalize(self):
        # deviations from the mean overflow even after rescaling
        x = np.array([[1.7e308, 1.0], [-1.7e308, 2.0], [1.7e308, 3.0]])
        with pytest.raises(DataError, match="feature 'wide' spans too wide a range"):
            fit_normalize(Dataset(x, np.array([0, 1, 0]), ["wide", "b"]))


def _with_row_ids(d):
    """``d`` with its row numbers as an extra first column, so each part
    that ``split`` returns tells which rows it holds."""
    x = np.column_stack([np.arange(d.n, dtype=np.float64), d.x])
    return Dataset(x, d.y, ["row", *d.feature_names])


def _row_ids(part):
    return part.x[:, 0].astype(np.int64)


class TestSplit:
    def test_balanced_even_split(self):
        y = np.array([0] * 50 + [1] * 50)
        d = Dataset(np.random.default_rng(0).normal(size=(100, 2)), y, ["a", "b"])
        d_a, d_b = split(d, 0.5, seed=1)
        assert d_a.n == 50 and d_b.n == 50
        for part in (d_a, d_b):
            assert np.bincount(part.y, minlength=2).tolist() == [25, 25]

    def test_same_seed_identical(self):
        d, _ = synth_generate(80, 4, [0], 0.0, 0.0, seed=2)
        for first, second in zip(split(d, 0.3, seed=9), split(d, 0.3, seed=9)):
            np.testing.assert_array_equal(first.x, second.x)
            np.testing.assert_array_equal(first.y, second.y)

    def test_tiny_stratified(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 0, 1, 1]), ["a", "b"])
        for part in split(d, 0.5, seed=0):
            assert set(part.y) == {0, 1}

    def test_disjoint_exact_cover(self):
        for seed in range(10):
            n = 20 + seed * 13
            d, _ = synth_generate(n, 3, [1], 0.0, 0.0, seed=seed)
            d = _with_row_ids(d)
            for fraction in (0.2, 0.5, 0.8):
                d_a, d_b = split(d, fraction, seed=seed)
                merged = np.sort(np.concatenate([_row_ids(d_a), _row_ids(d_b)]))
                np.testing.assert_array_equal(merged, np.arange(n))
                for part in (d_a, d_b):
                    ids = _row_ids(part)
                    np.testing.assert_array_equal(part.x, d.x[ids])
                    np.testing.assert_array_equal(part.y, d.y[ids])
                    assert part.feature_names == d.feature_names

    def test_parts_keep_row_order(self):
        d, _ = synth_generate(90, 3, [0], 0.0, 0.0, seed=5)
        for part in split(_with_row_ids(d), 0.4, seed=6):
            assert np.all(np.diff(_row_ids(part)) > 0)

    def test_size_near_fraction(self):
        d, _ = synth_generate(101, 3, [0], 0.0, 0.0, seed=3)
        d_a, _ = split(d, 0.35, seed=4)
        assert abs(d_a.n - round(0.35 * 101)) <= 2

    def test_bad_fraction(self):
        d, _ = synth_generate(20, 3, [0], 0.0, 0.0, seed=0)
        with pytest.raises(ConfigError):
            split(d, 1.5, seed=0)


class TestSynthGenerate:
    def test_noise_free_task_separable_by_generating_score(self):
        d, truth = synth_generate(500, 72, [9, 22, 35, 59], 0.0, 0.0, seed=7)
        np.testing.assert_array_equal(truth_labels(truth, d.x), d.y)
        assert truth.flip_count == 0

    def test_half_flip_agreement_near_half(self):
        d, truth = synth_generate(2000, 10, [0, 1], 0.0, 0.5, seed=8)
        agree = np.mean(truth_labels(truth, d.x) == d.y)
        assert 0.45 <= agree <= 0.55

    def test_same_seed_identical(self):
        d1, t1 = synth_generate(100, 6, [1, 4], 0.2, 0.1, seed=12)
        d2, t2 = synth_generate(100, 6, [1, 4], 0.2, 0.1, seed=12)
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.y, d2.y)
        assert t1 == t2

    def test_coefficient_magnitudes(self):
        _, truth = synth_generate(200, 8, [0, 3, 5], 0.0, 0.0, seed=13)
        assert all(abs(c) >= 0.5 for c in truth.coefficients)

    def test_flip_count_recorded(self):
        d, truth = synth_generate(1000, 5, [2], 0.0, 0.25, seed=14)
        disagreements = int(np.sum(truth_labels(truth, d.x) != d.y))
        assert truth.flip_count == disagreements

    def test_empty_relevant_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            synth_generate(100, 5, [], 0.0, 0.0, seed=0)

    def test_out_of_range_relevant_rejected(self):
        with pytest.raises(ConfigError, match="range"):
            synth_generate(100, 5, [7], 0.0, 0.0, seed=0)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ConfigError):
            synth_generate(15, 5, [0, 1], 0.0, 0.0, seed=0)

    def test_truth_json_round_trip(self, tmp_path):
        _, truth = synth_generate(100, 6, [1, 3], 0.1, 0.05, seed=21)
        path = tmp_path / "truth.json"
        truth.save(path)
        assert read_truth(path) == truth
