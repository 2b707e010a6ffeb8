"""Shard construction: coverage, disjointness, and label-skew behavior."""

import numpy as np
import pytest

from fedagm import (
    Dataset,
    ParameterError,
    PartitionSpec,
    RngStream,
    StructuralError,
    empirical_label_histogram,
    make_blobs_dataset,
    mean_label_entropy,
    partition,
    write_partition_report,
)
from fedagm.partition import _largest_remainder


def balanced_dataset(n=2000, num_classes=10, num_features=2, seed=0):
    """Every class appears exactly n/num_classes times."""
    labels = np.arange(n, dtype=np.int64) % num_classes
    gen = np.random.default_rng(seed)
    feats = gen.normal(size=(n, num_features)) + labels[:, None]
    return Dataset(feats, labels, num_classes)


def assert_disjoint(shards):
    all_idx = np.concatenate([s.indices for s in shards])
    assert len(all_idx) == len(set(all_idx.tolist()))


class TestLargestRemainder:
    def test_hand_example(self):
        out = _largest_remainder(np.array([1.0, 1.0, 1.0]), 10)
        assert out.tolist() == [4, 3, 3]
        assert out.sum() == 10

    def test_total_preserved_random(self):
        gen = np.random.default_rng(1)
        for _ in range(200):
            k = int(gen.integers(1, 12))
            w = gen.uniform(0, 1, size=k)
            total = int(gen.integers(0, 500))
            out = _largest_remainder(w, total)
            assert out.sum() == total
            assert np.all(out >= 0)

    def test_exact_proportions_are_exact(self):
        out = _largest_remainder(np.array([0.5, 0.25, 0.25]), 8)
        assert out.tolist() == [4, 2, 2]


class TestUniform:
    def test_even_split_hand_example(self):
        data = balanced_dataset(n=100, num_classes=4)
        shards = partition(data, PartitionSpec("uniform", N=4), RngStream(0))
        assert [s.data.n for s in shards] == [25, 25, 25, 25]
        assert [s.weight for s in shards] == [0.25] * 4
        assert_disjoint(shards)
        assert sum(s.data.n for s in shards) == 100

    def test_remainder_rows_are_dropped(self):
        data = balanced_dataset(n=103, num_classes=4)
        shards = partition(data, PartitionSpec("uniform", N=4), RngStream(0))
        assert sum(s.data.n for s in shards) == 100

    def test_rows_match_source_by_index(self):
        data = balanced_dataset(n=60, num_classes=3)
        shards = partition(data, PartitionSpec("uniform", N=3), RngStream(1))
        for s in shards:
            np.testing.assert_array_equal(s.data.features, data.features[s.indices])
            np.testing.assert_array_equal(s.data.labels, data.labels[s.indices])

    def test_near_global_label_mix(self):
        data = balanced_dataset(n=4000, num_classes=10)
        shards = partition(data, PartitionSpec("uniform", N=4), RngStream(2))
        hist = empirical_label_histogram(shards, 10)
        tv = 0.5 * np.abs(hist - 0.1).sum(axis=1)
        assert np.all(tv < 0.05)


class TestDirichlet:
    def spec(self, N=10, alpha=0.5, **kw):
        return PartitionSpec("dirichlet", N=N, alpha=alpha, **kw)

    def test_disjoint_and_quota_sized(self):
        data = balanced_dataset(n=1000, num_classes=5)
        shards = partition(data, self.spec(N=8), RngStream(3))
        assert_disjoint(shards)
        assert all(s.data.n == 125 for s in shards)

    def test_concentrated_alpha_matches_global_prior(self):
        # alpha -> inf makes every client's mix approach the global label
        # prior; tolerate tail clients hit by pool exhaustion.
        data = balanced_dataset(n=4000, num_classes=10)
        shards = partition(data, self.spec(N=10, alpha=1e6), RngStream(4))
        hist = empirical_label_histogram(shards, 10)
        tv = 0.5 * np.abs(hist - 0.1).sum(axis=1)
        assert np.mean(tv <= 0.05) >= 0.95

    def test_sparse_alpha_concentrates_labels(self):
        data = balanced_dataset(n=4000, num_classes=10)
        shards = partition(data, self.spec(N=10, alpha=0.05), RngStream(5))
        hist = empirical_label_histogram(shards, 10)
        # most clients put the bulk of their mass on very few classes
        top2 = np.sort(hist, axis=1)[:, -2:].sum(axis=1)
        assert np.mean(top2 > 0.8) >= 0.7

    def test_entropy_orders_sparse_below_concentrated(self):
        data = balanced_dataset(n=2000, num_classes=10)
        means = []
        for alpha in (0.05, 100.0):
            vals = [
                mean_label_entropy(
                    empirical_label_histogram(
                        partition(data, self.spec(alpha=alpha), RngStream(seed)), 10
                    )
                )
                for seed in range(20)
            ]
            means.append(float(np.mean(vals)))
        assert means[0] < means[1]

    def test_hierarchical_groups_concentrate_within_group(self):
        data = balanced_dataset(n=4000, num_classes=10)
        # classes 0-4 form group 0, classes 5-9 form group 1
        groups = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        shards = partition(
            data, self.spec(N=10, alpha=0.05, class_groups=groups), RngStream(6)
        )
        hist = empirical_label_histogram(shards, 10)
        group_mass = np.stack([hist[:, :5].sum(axis=1), hist[:, 5:].sum(axis=1)], axis=1)
        assert float(group_mass.max(axis=1).mean()) > 0.8

    def test_group_ids_count_by_rank(self):
        # a sparse id sizes nothing: the draw runs over the three groups in use
        data = balanced_dataset(n=400, num_classes=4)
        sparse, dense = ([0, 0, 1, gap] for gap in (3_000_000, 2))
        a = partition(data, self.spec(N=6, alpha=0.3, class_groups=sparse), RngStream(9))
        b = partition(data, self.spec(N=6, alpha=0.3, class_groups=dense), RngStream(9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.indices, y.indices)

    def test_determinism(self):
        data = balanced_dataset(n=500, num_classes=5)
        a = partition(data, self.spec(N=5), RngStream(7))
        b = partition(data, self.spec(N=5), RngStream(7))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.indices, sb.indices)


class TestSortScheme:
    def test_label_budget_and_full_coverage(self):
        data = balanced_dataset(n=2000, num_classes=10)
        spec = PartitionSpec("sort", N=10, classes_per_client=2)
        shards = partition(data, spec, RngStream(8))
        assert_disjoint(shards)
        assert sum(s.data.n for s in shards) == 2000
        for s in shards:
            assert len(np.unique(s.data.labels)) <= 2

    def test_histogram_rows_have_at_most_cpc_nonzeros(self):
        data = balanced_dataset(n=1500, num_classes=5)
        spec = PartitionSpec("sort", N=5, classes_per_client=2)
        hist = empirical_label_histogram(partition(data, spec, RngStream(9)), 5)
        assert np.all((hist > 0).sum(axis=1) <= 2)

    def test_oversubscribed_slots_raise(self):
        # 30 clients x 2 slots = 60 single-class slots but only 52 rows
        labels = np.array([0] * 50 + [1] * 2, dtype=np.int64)
        data = Dataset(np.zeros((52, 1)), labels, 2)
        spec = PartitionSpec("sort", N=30, classes_per_client=2)
        with pytest.raises(StructuralError):
            partition(data, spec, RngStream(10))


class TestWeights:
    def test_equal_weights_sum_to_one(self):
        data = balanced_dataset(n=301, num_classes=7)
        shards = partition(data, PartitionSpec("uniform", N=7), RngStream(11))
        assert abs(sum(s.weight for s in shards) - 1.0) <= 1e-12

    def test_proportional_weights_match_sizes(self):
        data = balanced_dataset(n=1000, num_classes=10)
        spec = PartitionSpec("dirichlet", N=6, alpha=0.3, balance="proportional")
        shards = partition(data, spec, RngStream(12))
        sizes = np.array([s.data.n for s in shards], dtype=np.float64)
        expected = sizes / sizes.sum()
        for s, w in zip(shards, expected):
            assert s.weight == pytest.approx(w, rel=1e-15)
        assert abs(sum(s.weight for s in shards) - 1.0) <= 1e-12


class TestValidation:
    def test_more_clients_than_rows(self):
        data = balanced_dataset(n=5, num_classes=5)
        with pytest.raises(StructuralError):
            partition(data, PartitionSpec("uniform", N=10), RngStream(0))

    def test_cpc_above_class_count(self):
        data = balanced_dataset(n=100, num_classes=4)
        spec = PartitionSpec("sort", N=4, classes_per_client=9)
        with pytest.raises(ParameterError):
            partition(data, spec, RngStream(0))

    def test_bad_scheme_and_balance(self):
        with pytest.raises(ParameterError):
            PartitionSpec("zipf", N=4)
        with pytest.raises(ParameterError):
            PartitionSpec("uniform", N=4, balance="quadratic")
        with pytest.raises(ParameterError):
            PartitionSpec("dirichlet", N=4)  # alpha required
        with pytest.raises(ParameterError):
            PartitionSpec("sort", N=4)  # classes_per_client required

    def test_negative_class_group_ids(self):
        with pytest.raises(ParameterError, match="class_groups"):
            PartitionSpec("dirichlet", N=4, alpha=1.0, class_groups=[-1, 0, 1])


class TestHistogramAndReport:
    def test_single_client_recovers_global_prior(self):
        data = balanced_dataset(n=400, num_classes=4)
        shards = partition(data, PartitionSpec("uniform", N=1), RngStream(13))
        hist = empirical_label_histogram(shards, 4)
        np.testing.assert_allclose(hist, np.full((1, 4), 0.25), atol=0)

    def test_rows_are_distributions(self):
        data = balanced_dataset(n=900, num_classes=6)
        shards = partition(data, PartitionSpec("dirichlet", N=9, alpha=0.2), RngStream(14))
        hist = empirical_label_histogram(shards, 6)
        np.testing.assert_allclose(hist.sum(axis=1), np.ones(9), atol=1e-12)
        assert np.all(hist >= 0)

    def test_entropy_bounds(self):
        uniform_rows = np.full((3, 8), 1.0 / 8)
        assert mean_label_entropy(uniform_rows) == pytest.approx(np.log(8), rel=1e-12)
        point_rows = np.eye(4)
        assert mean_label_entropy(point_rows) == 0.0

    def test_report_csv_shape(self, tmp_path):
        data = balanced_dataset(n=600, num_classes=3)
        shards = partition(data, PartitionSpec("dirichlet", N=6, alpha=0.4), RngStream(15))
        path = tmp_path / "report.csv"
        write_partition_report(path, shards, 3)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "client,class_0,class_1,class_2,p"
        assert len(lines) == 7
        counts = np.array(
            [[int(v) for v in line.split(",")[1:4]] for line in lines[1:]]
        )
        assert counts.sum() == sum(s.data.n for s in shards)
        weights = [float(line.split(",")[4]) for line in lines[1:]]
        assert abs(sum(weights) - 1.0) <= 1e-12
