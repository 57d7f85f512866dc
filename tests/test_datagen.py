import json
import warnings

import numpy as np
import pytest

from dareid.datagen import (DatasetFormatError, ToySpec, generate_toy_dataset,
                            manifest_path_for, read_dataset, write_dataset)
from dareid.sampling import REAL, SYNTHETIC


class TestGenerate:
    def test_counts_and_id_ranges(self):
        spec = ToySpec(num_ids_real=3, num_ids_synth=4, samples_per_id=5)
        samples, manifest = generate_toy_dataset(spec)
        assert len(samples) == (3 + 4) * 5
        real = [s for s in samples if s.domain == REAL]
        synth = [s for s in samples if s.domain == SYNTHETIC]
        assert {s.id for s in real} == {0, 1, 2}
        assert {s.id for s in synth} == {3, 4, 5, 6}
        assert manifest["real_id_range"] == [0, 3]
        assert manifest["synth_id_range"] == [3, 7]
        assert manifest["matched_id_pairs"] == [[0, 3], [1, 4], [2, 5]]

    def test_schema_fields_per_domain(self):
        samples, _ = generate_toy_dataset(ToySpec(seed=1))
        for s in samples:
            if s.domain == REAL:
                assert s.color is None and s.type is None
                assert s.orientation_deg is None
            else:
                assert s.color is not None and s.type is not None
                assert 0.0 <= s.orientation_deg < 360.0

    def test_deterministic_for_fixed_seed(self):
        a, ma = generate_toy_dataset(ToySpec(seed=7))
        b, mb = generate_toy_dataset(ToySpec(seed=7))
        assert ma == mb
        for sa, sb in zip(a, b):
            assert sa.domain == sb.domain and sa.id == sb.id
            assert np.array_equal(sa.features, sb.features)
            assert sa.orientation_deg == sb.orientation_deg

    def test_seeds_differ(self):
        a, _ = generate_toy_dataset(ToySpec(seed=0))
        b, _ = generate_toy_dataset(ToySpec(seed=1))
        assert not np.array_equal(a[0].features, b[0].features)

    def test_identity_shift_matches_no_shift(self):
        dim = 16
        ident = (np.eye(dim), np.zeros(dim))
        a, _ = generate_toy_dataset(ToySpec(seed=3))
        b, _ = generate_toy_dataset(ToySpec(seed=3, domain_shift=ident))
        for sa, sb in zip(a, b):
            assert np.allclose(sa.features, sb.features, atol=1e-12)

    def test_offset_shift_moves_synthetic_only(self):
        off = np.full(16, 5.0)
        a, _ = generate_toy_dataset(ToySpec(seed=4))
        b, _ = generate_toy_dataset(
            ToySpec(seed=4, domain_shift=(np.eye(16), off)))
        for sa, sb in zip(a, b):
            if sa.domain == REAL:
                assert np.array_equal(sa.features, sb.features)
            else:
                assert np.allclose(sb.features - sa.features, off, atol=1e-12)

    def test_matched_ids_share_cluster_center(self):
        # matched real/synthetic ids sit near the same center, so their
        # sample means agree to within the noise scale
        spec = ToySpec(samples_per_id=200, noise_sigma=0.1, seed=5)
        samples, manifest = generate_toy_dataset(spec)
        for rid, sid in manifest["matched_id_pairs"]:
            rmean = np.mean([s.features for s in samples
                             if s.domain == REAL and s.id == rid], axis=0)
            smean = np.mean([s.features for s in samples
                             if s.domain == SYNTHETIC and s.id == sid], axis=0)
            assert np.linalg.norm(rmean - smean) < 0.1

    def test_clusters_respect_separation(self):
        spec = ToySpec(noise_sigma=0.0, samples_per_id=1, seed=6)
        samples, _ = generate_toy_dataset(spec)
        real = sorted((s for s in samples if s.domain == REAL),
                      key=lambda s: s.id)
        for i, a in enumerate(real):
            for b in real[i + 1:]:
                assert np.linalg.norm(a.features - b.features) >= 4.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ToySpec(cluster_sep=0.0)
        with pytest.raises(ValueError):
            ToySpec(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            ToySpec(samples_per_id=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="cluster_sep"):
                ToySpec(cluster_sep=bad)
            with pytest.raises(ValueError, match="noise_sigma"):
                ToySpec(noise_sigma=bad)
            with pytest.raises(ValueError, match="domain_shift"):
                ToySpec(input_dim=2, domain_shift=(np.eye(2), [0.0, bad]))
            with pytest.raises(ValueError, match="domain_shift"):
                ToySpec(input_dim=2, domain_shift=([[1.0, bad], [0.0, 1.0]],
                                                   np.zeros(2)))

    @pytest.mark.parametrize("counts", [
        dict(num_ids_real=2**63 - 1), dict(samples_per_id=2**62),
        dict(input_dim=2**60)])
    def test_dataset_too_large_for_numpy_rejected(self, counts):
        # checked before any loop over the rows or centres starts
        with pytest.raises(ValueError, match=r"\(ids_real, ids_synth, "
                           r"per_id, dim\) are too many values"):
            ToySpec(**counts)

    @pytest.mark.parametrize("scale", [dict(cluster_sep=1e308),
                                       dict(noise_sigma=1e308)])
    def test_features_that_overflow_rejected_without_warning(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite; lower "
                               "cluster_sep, noise_sigma or shift_offset"):
                generate_toy_dataset(ToySpec(input_dim=4, **scale))

    @pytest.mark.parametrize("n_real,n_synth", [(3, 5), (5, 3), (4, 4)])
    def test_synthetic_ids_beyond_the_real_ones_get_new_centres(
            self, n_real, n_synth):
        spec = ToySpec(num_ids_real=n_real, num_ids_synth=n_synth,
                       samples_per_id=1, noise_sigma=0.0, seed=2)
        samples, manifest = generate_toy_dataset(spec)
        centres = [s.features for s in samples]
        assert manifest["matched_id_pairs"] == [
            [j, n_real + j] for j in range(min(n_real, n_synth))]
        for j in range(n_synth):
            same = [i for i, c in enumerate(centres[:n_real])
                    if np.array_equal(c, centres[n_real + j])]
            assert same == ([j] if j < n_real else [])


class TestFileFormat:
    def test_manifest_path(self):
        assert manifest_path_for("/tmp/x.jsonl") == "/tmp/x.manifest.json"
        assert manifest_path_for("/tmp/y") == "/tmp/y.manifest.json"

    def test_round_trip_is_exact(self, tmp_path):
        samples, manifest = generate_toy_dataset(ToySpec(seed=8))
        path = tmp_path / "data.jsonl"
        write_dataset(samples, manifest, path)
        loaded, loaded_manifest = read_dataset(path)
        assert loaded_manifest == manifest
        assert len(loaded) == len(samples)
        for sa, sb in zip(samples, loaded):
            assert sa.domain == sb.domain and sa.id == sb.id
            assert np.array_equal(sa.features, sb.features)
            assert sa.color == sb.color and sa.type == sb.type
            assert sa.orientation_deg == sb.orientation_deg

    def test_hand_written_two_line_file(self, tmp_path):
        path = tmp_path / "tiny.jsonl"
        path.write_text(
            '{"domain": "real", "id": 0, "features": [1.0, 2.0]}\n'
            '{"domain": "synthetic", "id": 1, "features": [3.0, 4.0], '
            '"color": 2, "type": 1, "orientation_deg": 90.0}\n')
        samples, manifest = read_dataset(path)
        assert len(samples) == 2
        assert samples[0].domain == REAL and samples[1].color == 2
        assert manifest["real_id_range"] == [0, 1]
        assert manifest["synth_id_range"] == [1, 2]

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"domain": "real", "id": 0, "features": [1.0]}\n'
            'not json\n')
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(path)

    def test_real_sample_with_color_rejected(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        path.write_text(
            '{"domain": "real", "id": 0, "features": [1.0], "color": 3}\n')
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(path)

    def test_synthetic_sample_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad3.jsonl"
        path.write_text(
            '{"domain": "synthetic", "id": 0, "features": [1.0], "color": 1}\n')
        with pytest.raises(DatasetFormatError, match="orientation_deg"):
            read_dataset(path)

    def test_unknown_domain_rejected(self, tmp_path):
        path = tmp_path / "bad4.jsonl"
        path.write_text('{"domain": "mixed", "id": 0, "features": [1.0]}\n')
        with pytest.raises(DatasetFormatError, match="domain"):
            read_dataset(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            '{"domain": "real", "id": 0, "features": [1.0]}\n'
            '\n'
            '{"domain": "real", "id": 1, "features": [2.0]}\n')
        samples, _ = read_dataset(path)
        assert [s.id for s in samples] == [0, 1]

    def test_float_features_survive_json(self, tmp_path):
        # repr-level JSON round trip must preserve float64 exactly
        samples, manifest = generate_toy_dataset(ToySpec(seed=9))
        path = tmp_path / "exact.jsonl"
        write_dataset(samples, manifest, path)
        loaded, _ = read_dataset(path)
        for sa, sb in zip(samples, loaded):
            assert sa.features.tobytes() == sb.features.tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        samples, manifest = generate_toy_dataset(ToySpec(seed=10))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(samples, manifest, p1)
        loaded, m2 = read_dataset(p1)
        write_dataset(loaded, m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_written_as_json(self, tmp_path):
        samples, manifest = generate_toy_dataset(ToySpec(seed=11))
        path = tmp_path / "c.jsonl"
        write_dataset(samples, manifest, path)
        with open(manifest_path_for(path)) as f:
            on_disk = json.load(f)
        assert on_disk == manifest
