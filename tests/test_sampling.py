import numpy as np
import pytest

from dareid.sampling import (REAL, SYNTHETIC, Batch, BatchSpec, Sample,
                             bin_orientation, build_train_set, sample_batch)

COUNTS = {"id": 8, "domain": 2, "color": 3, "type": 2, "orientation": 6}


def make_dataset(n_real_ids=4, n_synth_ids=4, per_id=5, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n_real_ids):
        for _ in range(per_id):
            data.append(Sample(REAL, i, rng.normal(size=dim)))
    for j in range(n_synth_ids):
        sid = n_real_ids + j
        for _ in range(per_id):
            data.append(Sample(SYNTHETIC, sid, rng.normal(size=dim),
                               color=j % 3, type=j % 2,
                               orientation_deg=float(rng.uniform(0, 360))))
    return data


def make_set(data, spec, two_domain=True, bins=6):
    real = [s for s in data if s.domain == REAL]
    synth = [s for s in data if s.domain == SYNTHETIC]
    counts = {**COUNTS, "id": 2 + max(s.id for s in data),
              "orientation": bins}
    return build_train_set(real, synth if two_domain else None, spec, counts)


class TestSampleSchema:
    def test_real_sample_rejects_disjoint_labels(self):
        with pytest.raises(ValueError):
            Sample(REAL, 0, [1.0], color=2, type=1, orientation_deg=10.0)

    def test_synthetic_sample_requires_all_labels(self):
        with pytest.raises(ValueError):
            Sample(SYNTHETIC, 0, [1.0], color=2, type=1)

    def test_errors_name_the_offending_fields(self):
        with pytest.raises(ValueError, match=r"real .*\['color'\]"):
            Sample(REAL, 0, [1.0], color=3)
        with pytest.raises(ValueError,
                           match=r"synthetic .*\['type', 'orientation_deg'\]"):
            Sample(SYNTHETIC, 0, [1.0], color=3)


class TestIdentityIndex:
    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="domain 0 has 0 identities"):
            build_train_set([], None, BatchSpec(2, 2), COUNTS)

    def test_single_identity_bucket(self):
        # identity 7's rows interleaved with identity 2's; ids sort first
        data = [Sample(REAL, 7 if i % 3 else 2, [float(i)]) for i in range(7)]
        train_set = build_train_set(data, None, BatchSpec(2, 2), COUNTS)
        assert list(train_set.groups) == [REAL]
        assert train_set.groups[REAL][1].tolist() == [1, 2, 4, 5]
        assert train_set.groups[REAL][0].tolist() == [0, 3, 6]

    def test_bucket_sizes_sum_to_dataset_size(self):
        data = make_dataset()
        train_set = make_set(data, BatchSpec(2, 2))
        assert sum(len(v) for groups in train_set.groups.values()
                   for v in groups) == len(data)


class TestBatchSpec:
    def test_requires_two_by_two_minimum(self):
        with pytest.raises(ValueError):
            BatchSpec(n=1, m=4)
        with pytest.raises(ValueError):
            BatchSpec(n=2, m=1)


def reference_batch(data, spec, rng, two_domain, bins):
    """Per-Sample reference: group rows by (domain, id) in dataset order,
    make the same rng draws, and read each label off the drawn Samples."""
    index = {}
    for pos, s in enumerate(data):
        index.setdefault((s.domain, s.id), []).append(pos)
    rows = []
    for domain in (REAL, SYNTHETIC) if two_domain else (REAL,):
        ids = sorted(i for (d, i) in index if d == domain)
        for k in rng.choice(len(ids), size=spec.n, replace=False):
            positions = index[(domain, ids[k])]
            picks = rng.choice(len(positions), size=spec.m,
                               replace=len(positions) < spec.m)
            rows.extend(data[positions[p]] for p in picks)
    def column(label):
        return np.array([label(s) if s.domain == SYNTHETIC else 0
                         for s in rows], dtype=np.int64)
    return Batch(
        np.stack([s.features for s in rows]),
        np.array([s.id for s in rows], dtype=np.int64),
        np.array([s.domain for s in rows], dtype=np.int64),
        column(lambda s: s.color), column(lambda s: s.type),
        column(lambda s: bin_orientation(s.orientation_deg, bins)))


class TestSampleBatch:
    def test_default_shape_two_by_four(self):
        data = make_dataset()
        batch = sample_batch(make_set(data, BatchSpec(2, 4)), BatchSpec(2, 4),
                             np.random.default_rng(0))
        assert batch.features.shape[0] == 16
        assert (batch.domain_labels == REAL).sum() == 8
        assert (batch.domain_labels == SYNTHETIC).sum() == 8
        assert len(np.unique(batch.id_labels)) == 4

    def test_forced_selection_with_minimal_dataset(self):
        data = make_dataset(n_real_ids=2, n_synth_ids=2, per_id=2)
        batch = sample_batch(make_set(data, BatchSpec(2, 2)), BatchSpec(2, 2),
                             np.random.default_rng(1))
        ids, counts = np.unique(batch.id_labels, return_counts=True)
        assert len(ids) == 4 and np.all(counts == 2)

    def test_small_identity_resampled_with_replacement(self):
        data = make_dataset(per_id=2)
        batch = sample_batch(make_set(data, BatchSpec(2, 4)), BatchSpec(2, 4),
                             np.random.default_rng(2))
        assert batch.features.shape[0] == 16

    def test_too_few_identities_rejected(self):
        data = make_dataset(n_real_ids=2)
        with pytest.raises(ValueError):
            make_set(data, BatchSpec(3, 2))

    def test_single_domain_batch(self):
        data = make_dataset()
        batch = sample_batch(make_set(data, BatchSpec(2, 3), two_domain=False),
                             BatchSpec(2, 3), np.random.default_rng(3))
        assert batch.features.shape[0] == 6
        assert np.all(batch.domain_labels == REAL)

    def test_same_seed_reproducibility(self):
        data = make_dataset()
        train_set = make_set(data, BatchSpec(2, 4))
        a = sample_batch(train_set, BatchSpec(2, 4), np.random.default_rng(42))
        b = sample_batch(train_set, BatchSpec(2, 4), np.random.default_rng(42))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.id_labels, b.id_labels)
        assert np.array_equal(a.orientation_labels, b.orientation_labels)

    @pytest.mark.parametrize("two_domain", [True, False])
    @pytest.mark.parametrize("bins", [4, 6, 8])
    @pytest.mark.parametrize("per_id", [2, 5])
    def test_gathers_what_a_per_sample_draw_reads(self, two_domain, bins,
                                                  per_id):
        # per_id=2 < m draws every identity's rows with replacement
        data = make_dataset(n_real_ids=5, n_synth_ids=6, per_id=per_id,
                            seed=bins)
        data = [data[i] for i in np.random.default_rng(per_id).permutation(
            len(data))]
        spec = BatchSpec(3, 4)
        train_set = make_set(data, spec, two_domain, bins)
        rng, ref_rng = (np.random.default_rng(7), np.random.default_rng(7))
        for _ in range(20):
            got = sample_batch(train_set, spec, rng)
            want = reference_batch(data, spec, ref_rng, two_domain, bins)
            for name in vars(want):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_identity_selection_frequencies(self):
        # each of the 6 real ids appears with probability n/6 per draw
        data = make_dataset(n_real_ids=6, n_synth_ids=2, per_id=2)
        n = 2
        train_set = make_set(data, BatchSpec(n, 2))
        rng = np.random.default_rng(4)
        draws = 10_000
        hits = np.zeros(6)
        for _ in range(draws):
            batch = sample_batch(train_set, BatchSpec(n, 2), rng)
            for i in np.unique(batch.id_labels[batch.domain_labels == REAL]):
                hits[i] += 1
        p = n / 6
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(hits - draws * p) <= 3 * sigma)


class TestTrainSetChecks:
    def test_real_and_synthetic_widths_must_match(self):
        data = make_dataset()
        real = [s for s in data if s.domain == REAL]
        synth = [Sample(SYNTHETIC, s.id, np.append(s.features, 0.0),
                        color=s.color, type=s.type,
                        orientation_deg=s.orientation_deg)
                 for s in data if s.domain == SYNTHETIC]
        with pytest.raises(ValueError, match="3 features, synthetic rows 4"):
            build_train_set(real, synth, BatchSpec(2, 2), COUNTS)

    @pytest.mark.parametrize("kind, count", [("id", 7), ("color", 2),
                                             ("type", 1)])
    def test_labels_outside_their_head_rejected(self, kind, count):
        data = make_dataset()
        real = [s for s in data if s.domain == REAL]
        synth = [s for s in data if s.domain == SYNTHETIC]
        with pytest.raises(ValueError, match=f"{kind} head's {count} classes"):
            build_train_set(real, synth, BatchSpec(2, 2),
                            {**COUNTS, kind: count})

    def test_empty_synthetic_set_is_a_domain_without_identities(self):
        real = [s for s in make_dataset() if s.domain == REAL]
        with pytest.raises(ValueError, match="domain 1 has 0 identities"):
            build_train_set(real, [], BatchSpec(2, 2), COUNTS)


class TestBinOrientation:
    def test_lower_edge(self):
        assert bin_orientation(0.0, 6) == 0

    def test_boundary_goes_to_higher_bin(self):
        assert bin_orientation(60.0, 6) == 1

    def test_wrap_rule(self):
        assert bin_orientation(359.9, 6) == 5
        assert bin_orientation(360.0, 6) == 0

    def test_periodicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = float(rng.uniform(-720, 720))
            b = int(rng.integers(1, 13))
            assert bin_orientation(a, b) == bin_orientation(a + 360.0, b)

    def test_single_bin(self):
        assert bin_orientation(123.4, 1) == 0

    def test_invalid_bins_rejected(self):
        with pytest.raises(ValueError):
            bin_orientation(10.0, 0)
