import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdavg.core import InputError, SparseVec
from sgdavg.data import (
    Dataset,
    ParseError,
    parse_libsvm,
    scale_features,
    serialize_libsvm,
    synthetic_separable_dataset,
)


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
        points = []
        for y, feats in raw_rows:
            idx = np.array(sorted(feats), dtype=np.int64)
            vals = np.array([feats[i] for i in sorted(feats)])
            points.append((SparseVec(idx, vals, n), y))
        ds1 = Dataset(points, n)
        ds2 = parse_libsvm(serialize_libsvm(ds1), n=n)
        assert ds2.m == ds1.m
        for (x1, y1), (x2, y2) in zip(ds1.points, ds2.points):
            assert y1 == y2
            assert np.array_equal(x1.indices, x2.indices)
            assert np.array_equal(x1.values, x2.values)


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
        pts = []
        for _ in range(30):
            idx = np.sort(rng.choice(10, size=4, replace=False))
            pts.append((SparseVec(idx, rng.standard_normal(4) * 5, 10), 1))
        pts[0] = (pts[0][0], -1)
        out, _ = scale_features(Dataset(pts, 10), "sparse01")
        for x, _ in out.points:
            assert np.all(x.values >= 0.0) and np.all(x.values <= 1.0)
        # per column, the smallest stored nonzero maps to exactly 0 and the
        # largest to exactly 1
        for j in range(10):
            before = [x.values[x.indices == j] for x, _ in pts]
            after = [x.values[x.indices == j] for x, _ in out.points]
            before, after = np.concatenate(before), np.concatenate(after)
            assert after[np.argmin(before)] == 0.0
            assert after[np.argmax(before)] == 1.0

    def test_standardize_columns(self):
        rng = np.random.default_rng(1)
        pts = [(rng.standard_normal(3) * 4 + 7, int(y)) for y in [1, -1] * 10]
        out, warnings = scale_features(Dataset(pts, 3), "standardize")
        mat = np.stack([x for x, _ in out.points])
        assert np.all(np.abs(mat.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(mat.var(axis=0) - 1.0) <= 1e-9)
        assert warnings == []

    def test_standardize_degenerate_column_warns(self):
        pts = [(np.array([1.0, 2.0]), 1), (np.array([1.0, 3.0]), -1), (np.array([1.0, 4.0]), 1)]
        out, warnings = scale_features(Dataset(pts, 2), "standardize")
        mat = np.stack([x for x, _ in out.points])
        assert np.all(mat[:, 0] == 0.0)
        assert len(warnings) == 1 and "column 0" in warnings[0]

    def test_auto_mode_uses_density(self):
        sparse_ds = parse_libsvm("1 1:1\n-1 9:1\n")  # density 2/18
        out, _ = scale_features(sparse_ds, "auto")
        assert isinstance(out.points[0][0], SparseVec)
        dense_ds = Dataset([(np.ones(2), 1), (np.array([2.0, 3.0]), -1)], 2)
        out, _ = scale_features(dense_ds, "auto")
        assert isinstance(out.points[0][0], np.ndarray)

    def test_unknown_mode(self):
        ds = parse_libsvm("1 1:1\n")
        with pytest.raises(InputError):
            scale_features(ds, "logscale")


class TestDataset:
    def test_label_validation(self):
        with pytest.raises(InputError):
            Dataset([(np.ones(2), 2)], 2)

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
        margins = ds.labels() * (np.stack([x for x, _ in ds.points]) @ w)
        assert margins.min() >= 0.5 - 1e-12
