import importlib.machinery
import importlib.util
import io
import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdavg import data as data_module
from sgdavg.core import BudgetExceeded, InputError, SparseVec
from sgdavg.data import (
    Dataset,
    ParseError,
    _map_labels,
    load_libsvm,
    parse_libsvm,
    scale_features,
    serialize_libsvm,
    synthetic_separable_dataset,
)


def scipy_matrix(ds):
    """The dataset's features as a scipy CSR matrix, the reference for its products."""
    return sp.csr_matrix((ds.data, ds.indices, ds.indptr), shape=(ds.m, ds.n))


def assert_same_csr(a, b):
    """Equal CSR arrays, labels and dimension; values compared bitwise."""
    assert a.n == b.n
    for name in ("indptr", "indices", "labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.data.dtype == b.data.dtype == np.float64
    assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64))


def reference_parse_libsvm(source, n=None):
    """The token-by-token parser that the chunked one replaced, as it was up
    to its result, which it returns as a CSR Dataset instead of per-row
    objects."""
    if isinstance(source, str):
        lines = io.StringIO(source)
    else:
        lines = source

    rows = []
    tokens = {}
    max_index = -1
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        label_token = parts[0]
        try:
            label_value = float(label_token)
        except ValueError:
            raise ParseError(f"malformed label {label_token!r}", lineno) from None
        if label_value not in tokens:
            if len(tokens) == 2:
                raise ParseError(
                    f"more than two distinct labels (saw {label_token!r})", lineno
                )
            tokens[label_value] = label_token
        idxs = []
        vals = []
        prev = 0
        for tok in parts[1:]:
            try:
                stridx, strval = tok.split(":", 1)
                idx = int(stridx)
                val = float(strval)
            except ValueError:
                raise ParseError(f"malformed feature token {tok!r}", lineno) from None
            if idx <= prev:
                raise ParseError(
                    f"indices must be strictly increasing 1-based, got {idx} after {prev}",
                    lineno,
                )
            prev = idx
            idxs.append(idx - 1)
            vals.append(val)
        if idxs:
            max_index = max(max_index, idxs[-1])
        rows.append((label_value, np.asarray(idxs, dtype=np.int64), np.asarray(vals)))

    if not rows:
        raise ParseError("no data lines found")
    inferred = max_index + 1
    if n is None:
        n = inferred
    elif n < inferred:
        raise InputError(f"requested dimension {n} is below observed maximum {inferred}")
    mapping = _map_labels(tokens)
    return Dataset(
        np.cumsum([0] + [idx.size for _, idx, _ in rows]),
        np.concatenate([idx for _, idx, _ in rows]),
        np.concatenate([val for _, _, val in rows]),
        [mapping[label] for label, _, _ in rows],
        n,
    )


def reference_sparse01(ds):
    """sparse01 values by a loop over the columns, each mapped on its own."""
    out = ds.data.copy()
    for j in range(ds.n):
        col = (ds.indices == j) & (out != 0.0)
        lo, hi = out[col].min(initial=np.inf), out[col].max(initial=-np.inf)
        out[col] = (out[col] - lo) / (hi - lo) if hi > lo else 1.0
    return out


@st.composite
def _csr_arrays(draw):
    """Dataset arguments: up to 8 rows over columns 0-5, some rows empty,
    values that include stored zeros (+0 and -0) and repeat often (so
    columns with one distinct nonzero occur), a dimension drawn on its own
    (an override above the columns used, or one below them), and at times
    one entry broken (negative, repeated or decreasing)."""
    m = draw(st.integers(1, 8))
    rows = [sorted(draw(st.sets(st.integers(0, 5), max_size=4))) for _ in range(m)]
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    values = st.one_of(st.sampled_from([0.0, -0.0, 2.5]),
                       st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    data = np.array(draw(st.lists(values, min_size=indices.size, max_size=indices.size)),
                    dtype=np.float64)
    if indices.size and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, indices.size - 1))
        indices[at] = draw(st.sampled_from([-1, indices[at - 1] if at else 0, 0]))
    labels = draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m))
    return np.cumsum([0] + [len(r) for r in rows]), indices, data, labels, draw(st.integers(1, 9))


_VALUES = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", "+2", ".5", "5.", "1E-3", "1e400", "inf", "-Infinity", "0"]),
)
# each replaces one token of an otherwise valid row
_BREAKAGES = {
    "zero index": lambda i, v: f"0:{v}",
    "negative index": lambda i, v: f"-{i}:{v}",
    "repeated index": None,  # the previous token again
    "missing colon": lambda i, v: f"{i}{v}",
    "extra colon": lambda i, v: f"{i}:{v}:1",
    "empty value": lambda i, v: f"{i}:",
    "empty index": lambda i, v: f":{v}",
    "bad value": lambda i, v: f"{i}:abc",
    "bad index": lambda i, v: f"x{i}:{v}",
    "float index": lambda i, v: f"{i}.0:{v}",
}


@st.composite
def _row(draw):
    label = draw(st.sampled_from(["1", "-1", "+1", "0", "2", "3", "1.0", "-0", "spam", "1:1"]))
    cols = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
    feats = [f"{c}:{draw(_VALUES)}" for c in cols]
    if feats and draw(st.booleans()):
        at = draw(st.integers(0, len(feats) - 1))
        how = draw(st.sampled_from(sorted(_BREAKAGES)))
        if how == "repeated index":
            if at:
                feats[at] = feats[at - 1]
        else:
            feats[at] = _BREAKAGES[how](cols[at], draw(_VALUES))
    if len(feats) > 1 and draw(st.integers(0, 9)) == 0:
        feats.reverse()  # decreasing indices
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    line = sep.join([label] + feats)
    return line + draw(st.sampled_from(["", " # note", "\t"]))


class TestParserParity:
    """The chunked parser against the token-by-token reference: equal CSR
    arrays and labels, or the same ParseError message and line."""

    @staticmethod
    def outcome(parse, text, n):
        try:
            return parse(text, n=n)
        except InputError as exc:
            return exc

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(_row(), _row(), _row(), st.sampled_from(["", "# comment", "   "])),
                 max_size=12),
        st.one_of(st.none(), st.integers(0, 45)),
        st.sampled_from([1, 2, 3, 5, 65536]),
    )
    def test_chunked_parser_matches_reference(self, lines, n, chunk):
        text = "\n".join(lines) + "\n"
        want = self.outcome(reference_parse_libsvm, text, n)
        with mock.patch.object(data_module, "_CHUNK_TOKENS", chunk):
            got = self.outcome(parse_libsvm, text, n)
        if isinstance(want, Exception):
            assert type(got) is type(want), (got, want)
            assert str(got) == str(want)
            assert getattr(got, "line", None) == getattr(want, "line", None)
        else:
            assert isinstance(got, Dataset), got
            assert_same_csr(got, want)

    def test_rows_of_generated_sparse_data_match_reference(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal(300)
        lines = []
        for _ in range(400):
            cols = np.sort(rng.choice(300, size=20, replace=False))
            vals = np.round(0.05 + 0.95 * rng.random(20), 6)
            label = "+1" if float(vals @ w[cols]) >= 0.0 else "-1"
            lines.append(label + " " + " ".join(f"{c + 1}:{v:.6f}" for c, v in zip(cols, vals)))
        text = "\n".join(lines) + "\n"
        with mock.patch.object(data_module, "_CHUNK_TOKENS", 1000):
            got = parse_libsvm(text)
        want = reference_parse_libsvm(text)
        assert_same_csr(got, want)
        # sparse01 against a per-column loop of the same formula
        scaled, _ = scale_features(got, "sparse01")
        expect = reference_sparse01(want)
        assert np.array_equal(scaled.data.view(np.int64), expect.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(_csr_arrays(), st.sampled_from([1, 2, 3]))
    def test_chunked_validation_and_scaling_match_one_chunk(self, arrays, chunk):
        # _CHUNK_TOKENS also sizes the chunks of Dataset validation and of
        # sparse01 scaling; with the default, each of these sets is one chunk
        def build():
            try:
                ds = Dataset(*arrays)
            except InputError as exc:
                return exc
            return ds, scale_features(ds, "sparse01")[0]

        want = build()
        with mock.patch.object(data_module, "_CHUNK_TOKENS", chunk):
            got = build()
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        assert not isinstance(got, Exception), got
        for a, b in zip(got, want):
            assert_same_csr(a, b)
        ds, scaled = want
        assert np.array_equal(scaled.data.view(np.int64),
                              reference_sparse01(ds).view(np.int64))

    @pytest.mark.parametrize("arrays, message", [
        (([0, 2, 3], [1, 1, 0], [1.0, 2.0, 3.0], [1, -1], 4),
         "column indices must be nonnegative and strictly increasing per row"),
        (([0, 1, 3], [0, -1, 2], [1.0, 2.0, 3.0], [1, -1], 4),
         "column indices must be nonnegative and strictly increasing per row"),
        # both faults: the order of the entries does not decide which is named
        (([0, 1, 3], [7, 2, 1], [1.0, 2.0, 3.0], [1, -1], 4),
         "column indices must be nonnegative and strictly increasing per row"),
        (([0, 1, 1, 3], [5, 0, 9], [1.0, 2.0, 3.0], [1, -1, 1], 4),
         "column index 9 out of range for dimension 4"),
    ])
    @pytest.mark.parametrize("chunk", [1, 2, 65536])
    def test_validation_errors_at_any_chunk_size(self, arrays, message, chunk):
        with mock.patch.object(data_module, "_CHUNK_TOKENS", chunk):
            with pytest.raises(InputError) as err:
                Dataset(*arrays)
        assert str(err.value) == message

    def test_conversions_stay_within_a_chunk(self):
        sizes = []
        convert = data_module._convert

        def recording(tokens):
            sizes.append(len(tokens))
            return convert(tokens)

        text = "".join(f"{1 if i % 2 else -1} 1:1 2:2 3:3 4:4 5:5\n" for i in range(100))
        with mock.patch.object(data_module, "_CHUNK_TOKENS", 12), \
                mock.patch.object(data_module, "_convert", recording):
            ds = parse_libsvm(text)
        assert ds.m == 100 and ds.indices.size == 500
        assert len(sizes) > 1 and max(sizes) < 12 + 5

    def test_error_in_a_later_chunk_names_its_line(self):
        text = "".join(f"1 {i + 1}:1\n" for i in range(50)) + "-1 3:1 2:1\n"
        with mock.patch.object(data_module, "_CHUNK_TOKENS", 4):
            with pytest.raises(ParseError) as err:
                parse_libsvm(text)
        assert err.value.line == 51
        assert str(err.value) == "line 51: indices must be strictly increasing 1-based, got 2 after 3"

    @pytest.mark.parametrize("token", [
        "1_0:1",        # digit separators, which int() takes
        "1:2_5",        # and float() takes
        "\u0663:1",     # ARABIC-INDIC DIGIT THREE, which int() takes
        "1:\u0663",
        f"{2 ** 63}:1",  # int() takes it; int64 does not
    ])
    def test_number_syntax_beyond_numpys_parser_rejected(self, token):
        text = f"-1 1:1\n1 {token}\n"
        with pytest.raises(ParseError) as err:
            parse_libsvm(text)
        assert str(err.value) == f"line 2: malformed feature token {token!r}"
        assert err.value.line == 2
        # the reference read these, or crashed past its checks
        try:
            reference_parse_libsvm(text)
        except OverflowError:
            assert token.startswith(str(2 ** 63))

    @pytest.mark.parametrize("token", ["2.5:1", "1e3:1"])
    def test_float_index_rejected_where_numpy_only_warns(self, token):
        # numpy releases that still read an integer field through a float
        # truncate it and only warn; the token must stay malformed there too
        def truncating_loadtxt(tokens, delimiter, comments, dtype, ndmin):
            out = np.empty(len(tokens), dtype=dtype)
            for k, t in enumerate(tokens):
                i, v = t.split(delimiter)
                try:
                    out[k]["i"] = int(i)
                except ValueError:
                    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                                  DeprecationWarning, stacklevel=2)
                    out[k]["i"] = int(float(i))
                out[k]["v"] = float(v)
            return out

        with mock.patch.object(np, "loadtxt", truncating_loadtxt):
            with pytest.raises(ParseError) as err:
                parse_libsvm(f"-1 1:1\n1 {token}\n")
        assert str(err.value) == f"line 2: malformed feature token {token!r}"
        assert err.value.line == 2


class TestParse:
    def test_basic_line(self):
        ds = parse_libsvm("1 1:0.5 3:1.25\n")
        assert ds.m == 1
        assert ds.n >= 3
        x, y = ds.points[0]
        assert y == +1
        assert np.array_equal(x.indices, [0, 2])
        assert np.array_equal(x.values, [0.5, 1.25])

    def test_label_only_line(self):
        ds = parse_libsvm("-1 2:1.0\n-1\n")
        x, y = ds.points[1]
        assert y == -1
        assert x.nnz == 0
        assert np.array_equal(x.to_dense(), [0.0, 0.0])

    def test_counting(self):
        text = "1 7:1\n-1 2:3\n1 1:2\n"
        ds = parse_libsvm(text)
        assert ds.m == 3
        assert ds.n == 7

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("# header\n\n1 1:2.0  # trailing\n\n-1 1:1.0\n")
        assert ds.m == 2

    def test_zero_one_labels(self):
        ds = parse_libsvm("0 1:1\n1 1:2\n")
        assert [y for _, y in ds.points] == [-1, +1]

    def test_positive_pair_lexicographic(self):
        ds = parse_libsvm("1 1:1\n2 1:2\n")
        assert [y for _, y in ds.points] == [-1, +1]

    def test_plus_minus_kept(self):
        ds = parse_libsvm("+1 1:1\n-1 1:2\n")
        assert [y for _, y in ds.points] == [+1, -1]

    def test_three_labels_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 1:1\n2 1:1\n3 1:1\n")
        assert err.value.line == 3

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 2:1 2:2\n")
        assert err.value.line == 1

    def test_malformed_token_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 1:abc\n")
        with pytest.raises(ParseError):
            parse_libsvm("spam 1:1\n")

    def test_dimension_override(self):
        ds = parse_libsvm("1 1:1\n-1 2:1\n", n=10)
        assert ds.n == 10
        with pytest.raises(InputError):
            parse_libsvm("1 5:1\n-1 1:1\n", n=3)

    def test_round_trip_fixed_point(self):
        text = "+1 1:0.5 3:1.25\n-1 2:-7\n+1 1:3 2:0.125\n"
        ds1 = parse_libsvm(text)
        ds2 = parse_libsvm(serialize_libsvm(ds1))
        assert ds1.m == ds2.m and ds1.n == ds2.n
        for (x1, y1), (x2, y2) in zip(ds1.points, ds2.points):
            assert y1 == y2
            assert np.array_equal(x1.indices, x2.indices)
            assert np.array_equal(x1.values, x2.values)

    def test_parse_preserves_m_and_label_multiset(self):
        text = "1 1:1\n-1 1:2\n1 2:1\n1 3:4\n"
        ds = parse_libsvm(text)
        assert ds.m == 4
        assert sorted(y for _, y in ds.points) == [-1, 1, 1, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1, 1]),
                st.dictionaries(
                    st.integers(0, 12),
                    st.floats(-1e6, 1e6).filter(lambda v: v != 0.0),
                    max_size=6,
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_serialize_parse_round_trip_property(self, raw_rows):
        n = 13
        lens = [len(feats) for _, feats in raw_rows]
        ds1 = Dataset(
            np.concatenate(([0], np.cumsum(lens))),
            [i for _, feats in raw_rows for i in sorted(feats)],
            [feats[i] for _, feats in raw_rows for i in sorted(feats)],
            [y for y, _ in raw_rows],
            n,
        )
        ds2 = parse_libsvm(serialize_libsvm(ds1), n=n)
        assert ds2.m == ds1.m
        assert_same_csr(ds1, ds2)


class TestScaling:
    def test_sparse01_range_map(self):
        ds = parse_libsvm("1 1:2\n-1 1:4\n")
        out, warnings = scale_features(ds, "sparse01")
        vals = sorted(float(x.values[0]) for x, _ in out.points)
        assert vals == [0.0, 1.0]
        assert warnings == []

    def test_sparse01_single_distinct_nonzero(self):
        # column value {0, 10} where 0 comes from absence: the 10 maps to 1
        ds = parse_libsvm("1 2:10\n-1 1:5\n")
        out, _ = scale_features(ds, "sparse01")
        x0 = out.points[0][0]
        assert np.array_equal(x0.indices, [1])
        assert np.array_equal(x0.values, [1.0])

    def test_sparse01_explicit_zero_sets_no_range(self):
        # stored zeros stay zero; only genuine nonzeros define the column range
        ds = parse_libsvm("1 1:0 2:5\n-1 1:4 2:10\n")
        out, _ = scale_features(ds, "sparse01")
        first, second = out.points[0][0], out.points[1][0]
        assert np.array_equal(first.values, [0.0, 0.0])   # 0 stays, 5 -> 0
        assert np.array_equal(second.values, [1.0, 1.0])  # lone 4 -> 1, 10 -> 1

    def test_sparse01_all_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        rows = [(np.sort(rng.choice(10, size=4, replace=False)), rng.standard_normal(4) * 5)
                for _ in range(30)]
        ds = Dataset(np.arange(0, 121, 4), np.concatenate([i for i, _ in rows]),
                     np.concatenate([v for _, v in rows]), [-1] + [1] * 29, 10)
        out, _ = scale_features(ds, "sparse01")
        assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)
        assert np.array_equal(out.indptr, ds.indptr) and np.array_equal(out.indices, ds.indices)
        # per column, the smallest stored nonzero maps to exactly 0 and the
        # largest to exactly 1
        for j in range(10):
            before, after = ds.data[ds.indices == j], out.data[out.indices == j]
            assert after[np.argmin(before)] == 0.0
            assert after[np.argmax(before)] == 1.0

    def test_standardize_columns(self):
        rng = np.random.default_rng(1)
        X = np.array([rng.standard_normal(3) * 4 + 7 for _ in range(20)])
        out, warnings = scale_features(Dataset.from_dense(X, [1, -1] * 10), "standardize")
        mat = np.asarray(scipy_matrix(out).todense())
        assert np.all(np.abs(mat.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(mat.var(axis=0) - 1.0) <= 1e-9)
        assert warnings == []

    def test_standardize_degenerate_column_warns(self):
        X = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        out, warnings = scale_features(Dataset.from_dense(X, [1, -1, 1]), "standardize")
        mat = np.asarray(scipy_matrix(out).todense())
        assert np.all(mat[:, 0] == 0.0)
        assert len(warnings) == 1 and "column 0" in warnings[0]

    def test_auto_mode_uses_density(self):
        sparse_ds = parse_libsvm("1 1:1\n-1 9:1\n")  # density 2/18
        out, _ = scale_features(sparse_ds, "auto")
        want, _ = scale_features(sparse_ds, "sparse01")
        assert_same_csr(out, want)
        assert out.density == sparse_ds.density
        dense_ds = Dataset.from_dense([[1.0, 1.0], [2.0, 3.0]], [1, -1])
        out, _ = scale_features(dense_ds, "auto")
        want, _ = scale_features(dense_ds, "standardize")
        assert_same_csr(out, want)
        assert np.array_equal(out.data, [-1.0, -1.0, 1.0, 1.0])

    def test_unknown_mode(self):
        ds = parse_libsvm("1 1:1\n")
        with pytest.raises(InputError):
            scale_features(ds, "logscale")

    def test_standardize_refused_before_densifying(self):
        # two stored entries, but a dense form of 2 x 2e8 float64 (3.2 GB),
        # held with its standardized copy
        ds = parse_libsvm("1 200000000:1\n-1 1:1\n")
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as err:
                scale_features(ds, "standardize")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(err.value, InputError) and isinstance(err.value, MemoryError)
        assert str(err.value) == (
            "a dense 2 x 200000000 copy of the features and its standardized copy need "
            "6400000000 bytes, above the batched engine's budget of 1600000000 bytes")
        assert peak < 1_000_000


def test_ingestion_memory_is_bounded(tmp_path):
    """load_libsvm and sparse01 scaling of a 4000 x 2000 set at 30 nonzeros
    per row peak within 1.75 times the dataset's CSR bytes plus one chunk of
    tokens at 128 bytes each (a token's string, list slot and converted
    entry take about 70). Chunks of 4096 tokens keep the chunk small beside
    the set. Measured under tracemalloc, for 2.0 MB of CSR arrays: 3.25 MB;
    4.2 MB when each chunk's converted records stayed alive until the parse
    ended; 10.9 MB when scaling made full-size temporaries. The bound is
    4.0 MB. With int32 indices the CSR arrays take 1.49 MB and the bound
    3.13 MB: converting each chunk's indices peaks at 2.72 MB, converting
    them after the join at 3.20 MB."""
    rng = np.random.default_rng(4)
    lines = []
    for i in range(4000):
        cols = np.sort(rng.choice(2000, size=30, replace=False)) + 1
        vals = np.round(0.05 + 0.95 * rng.random(30), 6)
        lines.append(f"{1 if i % 2 else -1} " + " ".join(
            f"{c}:{v:.6f}" for c, v in zip(cols.tolist(), vals.tolist())))
    path = tmp_path / "set.txt"
    path.write_text("\n".join(lines) + "\n")
    chunk = 4096
    with mock.patch.object(data_module, "_CHUNK_TOKENS", chunk):
        tracemalloc.start()
        try:
            ds = load_libsvm(path)
            scaled, _ = scale_features(ds, "sparse01")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    csr = sum(a.nbytes for a in (ds.indptr, ds.indices, ds.data, ds.labels))
    assert ds.indices.size == 4000 * 30 and scaled.data.size == ds.data.size
    assert peak <= 1.75 * csr + chunk * 128, (peak, csr)


class TestDataset:
    def test_label_validation(self):
        with pytest.raises(InputError):
            Dataset.from_dense(np.ones((1, 2)), [2])

    def test_density(self):
        ds = parse_libsvm("1 1:1\n-1 4:1\n")
        assert ds.density == pytest.approx(2 / 8)

    def test_matrix_and_dot_all(self):
        ds = parse_libsvm("1 1:1 2:2\n-1 2:1\n")
        w = np.array([1.0, 10.0])
        assert np.array_equal(ds.dot_all(w), [21.0, 10.0])

    def test_synthetic_separable(self):
        ds = synthetic_separable_dataset(100, 5, seed=0, margin=0.5)
        assert ds.m == 100 and ds.n == 5
        # some separator must classify everything: recover it by re-deriving
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=0)))
        w = rng.standard_normal(5)
        w /= np.linalg.norm(w)
        margins = ds.labels * (np.asarray(scipy_matrix(ds).todense()) @ w)
        assert margins.min() >= 0.5 - 1e-12

    def test_csr_arrays_validated(self):
        ok = ([0, 2, 2, 3], [1, 4, 0], [1.0, 2.0, 3.0], [1, -1, 1], 5)
        ds = Dataset(*ok)
        # m, n and nnz all fit in int32, so scipy's index dtype is int32
        assert ds.m == 3 and ds.n == 5
        assert ds.indices.dtype == ds.indptr.dtype == np.int32
        bad = [
            ([0, 2, 2, 3], [1, 5, 0], [1.0, 2.0, 3.0], [1, -1, 1], 5),   # index >= n
            ([0, 2, 2, 3], [-1, 4, 0], [1.0, 2.0, 3.0], [1, -1, 1], 5),  # negative
            ([0, 2, 2, 3], [4, 4, 0], [1.0, 2.0, 3.0], [1, -1, 1], 5),   # repeated in a row
            ([0, 2, 2, 3], [4, 1, 0], [1.0, 2.0, 3.0], [1, -1, 1], 5),   # decreasing in a row
            ([1, 2, 2, 3], [1, 4, 0], [1.0, 2.0, 3.0], [1, -1, 1], 5),   # indptr[0] != 0
            ([0, 2, 1, 3], [1, 4, 0], [1.0, 2.0, 3.0], [1, -1, 1], 5),   # indptr falls
            ([0, 2, 3], [1, 4, 0], [1.0, 2.0, 3.0], [1, -1, 1], 5),      # m + 1 entries
            ([0, 2, 2, 3], [1, 4, 0], [1.0, 2.0], [1, -1, 1], 5),        # data length
            ([0, 2, 2, 2], [1, 4, 0], [1.0, 2.0, 3.0], [1, -1, 1], 5),   # indptr[-1] != nnz
            ([0, 2, 2, 3], [1, 4, 0], [1.0, 2.0, 3.0], [1, 0, 1], 5),    # label 0
            ([0], [], [], [], 5),                                        # no points
            ([0, 1], [1.7], [1.0], [1], 3),                              # float indices
            ([0, 0.5, 1], [1], [1.0], [1, -1], 3),                       # float indptr
        ]
        for args in bad:
            with pytest.raises(InputError):
                Dataset(*args)

    def test_matrix_shares_the_arrays(self):
        # scipy picks the dataset's own index dtype, so a scipy matrix built
        # on the dataset's arrays copies nothing
        for ds in (parse_libsvm("1 1:1 2:2\n-1 2:1\n"),
                   Dataset([0, 1, 2], [0, 2**31], [1.0, 2.0], [1, -1], 2**31 + 1)):
            X = scipy_matrix(ds)
            for name in ("indptr", "indices", "data"):
                assert np.shares_memory(getattr(X, name), getattr(ds, name)), name

    def test_int64_indices_when_a_bound_exceeds_int32(self):
        # n >= 2**31 (m and nnz could be too): no array of that size is made
        ds = Dataset([0, 1, 2], [0, 2**31], [1.0, 2.0], [1, -1], 2**31 + 1)
        assert ds.indices.dtype == ds.indptr.dtype == np.int64
        assert ds.indices[1] == 2**31
        assert parse_libsvm("1 3000000000:1\n").indices.dtype == np.int64
        assert Dataset([0, 1], [2**31 - 2], [1.0], [1], 2**31 - 1).indices.dtype == np.int32
        # validated before narrowing: 2**32 + 1 would wrap to 1 as int32
        with pytest.raises(InputError, match="out of range"):
            Dataset([0, 1], np.array([2**32 + 1]), [1.0], [1], 5)

    def test_row_chunks_near_int32_limit(self):
        # an int32 indptr whose entries reach 2**31 - 1: the chunk end is
        # summed as a Python int, not wrapped round as an int32
        big = 2**31
        indptr = np.array([0, big - 100, big - 90, big - 80, big - 1], dtype=np.int32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(data_module._row_chunks(indptr)) == [(0, 1), (1, 4)]

    def test_arrays_are_read_only_views(self):
        data = np.array([1.0, 2.0])
        ds = Dataset([0, 1, 2], [0, 1], data, [1, -1], 2)
        with pytest.raises(ValueError):
            ds.data[0] = 5.0
        data[0] = 5.0  # the caller's array stays writable, and is shared
        assert ds.data[0] == 5.0

    def test_from_dense_stores_nonzeros_like_the_parser(self):
        ds = Dataset.from_dense([[0.0, 1.5, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, -3.0]], [1, -1, 1])
        assert_same_csr(ds, parse_libsvm("+1 2:1.5\n-1\n+1 1:2 3:-3\n"))

    def test_points_view_built_from_the_arrays(self):
        ds = parse_libsvm("+1 2:1.5\n-1\n+1 1:2 3:-3\n")
        points = ds.points
        assert isinstance(points, tuple) and len(points) == 3
        assert [y for _, y in points] == [1, -1, 1]
        for (x, _), a, b in zip(points, ds.indptr[:-1], ds.indptr[1:]):
            assert isinstance(x, SparseVec) and x.n == 3
            assert np.array_equal(x.indices, ds.indices[a:b])
            assert np.array_equal(x.values, ds.data[a:b])


# rows of two stored -0.0 entries and an empty row
KERNEL_TEXT = "+1 2:0.5 5:-1.25 9:3\n-1 1:2 3:-0 7:0.75\n+1\n-1 4:-0.5 9:1 10:-0.0\n"


def _kernel_sets():
    """The parsed sparse set and acceptance criterion 5's dense set, built
    when called (so under any patch of the index dtype rule)."""
    return [parse_libsvm(KERNEL_TEXT), synthetic_separable_dataset(2000, 20, seed=31415)]


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestKernels:
    """Dataset's products run scipy's compiled kernels on the dataset's own
    arrays; each must have the bits of the public scipy product."""

    @pytest.fixture(autouse=True)
    def _fresh_kernels(self):
        data_module._sparsetools.cache_clear()
        yield
        data_module._sparsetools.cache_clear()

    @staticmethod
    def products(ds):
        rng = np.random.default_rng(ds.m)
        W, v = rng.standard_normal((61, ds.n)), rng.standard_normal(ds.m)
        return W, v, {
            **{B: ds.dot_rows(W[:B]) for B in (1, 2, 8, 61)},
            "dot_all": ds.dot_all(W[0]), "dot_t": ds.dot_t(v), "toarray": ds.toarray()}

    def check(self, ds):
        X = scipy_matrix(ds)
        W, v, got = self.products(ds)
        for B in (1, 2, 8, 61):
            assert got[B].flags.c_contiguous
            assert_same_bits(got[B], X.dot(W[:B].T).T)
        assert_same_bits(got["dot_all"], X.dot(W[0]))
        assert_same_bits(got["dot_t"], X.T.dot(v))
        assert_same_bits(got["toarray"], X.toarray())
        return got

    @pytest.mark.parametrize("which", [0, 1], ids=["parsed", "criterion5"])
    def test_products_match_scipy(self, which):
        ds = _kernel_sets()[which]
        assert ds.indices.dtype == ds.indptr.dtype == np.int32
        self.check(ds)

    def test_stored_negative_zero_reads_as_positive_zero(self):
        ds = parse_libsvm(KERNEL_TEXT)
        assert np.count_nonzero(np.signbit(ds.data) & (ds.data == 0.0)) == 2
        dense = ds.toarray()
        assert np.array_equal(dense[3], [0, 0, 0, -0.5, 0, 0, 0, 0, 1, 0])
        assert not np.signbit(dense[dense == 0.0]).any()
        assert not dense[2].any()

    def test_operands_of_the_wrong_shape_are_refused(self):
        # the kernels read an operand by the sizes they are given, so a
        # short one would be read past its end
        ds = parse_libsvm(KERNEL_TEXT)
        m, n = ds.m, ds.n
        calls = [(ds.dot_all, (n - 1,)), (ds.dot_all, (n + 1,)), (ds.dot_all, (1, n)),
                 (ds.dot_rows, (n,)), (ds.dot_rows, (2, n - 1)), (ds.dot_rows, (1, n + 1)),
                 (ds.dot_t, (m - 1,)), (ds.dot_t, (m + 1,))]
        for product, shape in calls:
            with pytest.raises(InputError, match="shape"):
                product(np.zeros(shape))
        assert ds.dot_rows(np.zeros((0, n))).shape == (0, m)

    def test_int64_indices(self, monkeypatch):
        monkeypatch.setattr(data_module, "_INT32_MAX", 0)
        for ds in _kernel_sets():
            assert ds.indices.dtype == ds.indptr.dtype == np.int64
            self.check(ds)

    def test_kernels_are_loaded_from_the_installed_file(self):
        path = data_module._sparsetools_file()
        assert data_module._sparsetools().__file__ == path
        assert os.path.dirname(path) == os.path.join(
            importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse")

    def test_a_missing_kernel_file_is_an_import_error_naming_the_paths(self, monkeypatch, tmp_path):
        # scipy's spec as find_spec gives it, with no scipy and then with a
        # scipy whose sparse kernels are missing
        find_spec = importlib.util.find_spec
        scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        specs = {"scipy": None}
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *args: specs[name] if name in specs else find_spec(name, *args))
        with pytest.raises(ImportError, match="scipy is not installed"):
            data_module._sparsetools()
        scipy.submodule_search_locations.append(str(tmp_path))
        specs["scipy"] = scipy
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse" / "_sparsetools"))):
            data_module._sparsetools()
