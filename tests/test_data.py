"""Manifest IO, reference-disjoint splitting, and patch sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempqt.data import (
    DatasetManifest,
    Sample,
    eval_crops,
    generate_synthetic_dataset,
    load_manifest,
    sample_patches,
    save_manifest,
    split_by_reference,
)
from tempqt.errors import ArgumentError, DataError
from tempqt.imaging import GrayImage, ImageBatch, load_image, save_image
from tempqt.rng import CounterRng, derive_seed


def make_samples(groups, per_group=2):
    out = []
    for g in range(groups):
        for i in range(per_group):
            out.append(Sample(f"dist/g{g}_{i}.pgm", f"ref/g{g}.pgm", 0.5, f"g{g}", "train"))
    return out


def ramp_image(h, w, seed=0):
    rng = CounterRng(derive_seed(seed, "ramp"))
    data = rng.uniform(h * w).reshape(h, w)
    return GrayImage(h, w, data.astype(np.float32))


# ---------------------------------------------------------------------------
# manifest round trip


def test_manifest_round_trip_lossless(tmp_path):
    samples = [
        Sample("dist/a.pgm", "ref/a.pgm", 1.0, "a", "train"),
        Sample("dist/a_b1.pgm", "ref/a.pgm", 0.82, "a", "train"),
        Sample("dist/b_n5.pgm", "ref/b.pgm", 0.1, "b", "test"),
    ]
    path = tmp_path / "manifest.csv"
    save_manifest(DatasetManifest(1, 7, samples, str(tmp_path)), path)
    loaded = load_manifest(path)
    assert loaded.version == 1
    assert loaded.seed == 7
    assert loaded.samples == samples


def test_manifest_save_is_canonical(tmp_path):
    samples = make_samples(3)
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    save_manifest(DatasetManifest(1, 0, samples, "."), p1)
    save_manifest(DatasetManifest(1, 0, list(samples), "."), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_resolve_relative_to_location(tmp_path):
    (tmp_path / "sub").mkdir()
    path = tmp_path / "sub" / "m.csv"
    save_manifest(DatasetManifest(1, 0, make_samples(2), "."), path)
    man = load_manifest(path)
    assert man.resolve("dist/g0_0.pgm") == str(tmp_path / "sub" / "dist" / "g0_0.pgm")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda s: s.__setattr__("score", 1.5), "outside"),
        (lambda s: s.__setattr__("score", float("nan")), "outside"),
        (lambda s: s.__setattr__("split", "val"), "unknown split"),
        (lambda s: s.__setattr__("dist_path", ""), "empty dist_path"),
        (lambda s: s.__setattr__("dist_path", "dist/a,b.pgm"), "dist_path 'dist/a,b.pgm' holds a comma"),
        (lambda s: s.__setattr__("ref_path", "ref/a\nb.pgm"), r"ref_path 'ref/a\\nb.pgm' holds a comma or a line"),
        (lambda s: s.__setattr__("ref_group", "a,b"), "ref_group 'a,b' holds a comma"),
    ],
)
def test_save_rejects_bad_samples(tmp_path, mutate, message):
    samples = make_samples(2)
    mutate(samples[0])
    with pytest.raises(DataError, match=message):
        save_manifest(DatasetManifest(1, 0, samples, "."), tmp_path / "m.csv")


def test_save_rejects_duplicate_dist_path(tmp_path):
    samples = make_samples(2)
    samples[1].dist_path = samples[0].dist_path
    with pytest.raises(DataError, match="duplicate"):
        save_manifest(DatasetManifest(1, 0, samples, "."), tmp_path / "m.csv")


def test_save_rejects_group_in_both_splits(tmp_path):
    samples = make_samples(2)
    samples[1].split = "test"
    with pytest.raises(DataError, match="both splits"):
        save_manifest(DatasetManifest(1, 0, samples, "."), tmp_path / "m.csv")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty manifest"),
        ("# wrong header\ndist_path,ref_path,score,ref_group,split\n", "bad metadata"),
        ("# tempqt manifest version=9 seed=0\ndist_path,ref_path,score,ref_group,split\n", "version"),
        ("# tempqt manifest version=1 seed=0\nwrong,columns\n", "column header"),
        (
            "# tempqt manifest version=1 seed=0\n"
            "dist_path,ref_path,score,ref_group,split\n"
            "a.pgm,r.pgm,0.5,g\n",
            "expected 5 fields",
        ),
        (
            "# tempqt manifest version=1 seed=0\n"
            "dist_path,ref_path,score,ref_group,split\n"
            "a.pgm,r.pgm,high,g,train\n",
            "bad score",
        ),
    ],
)
def test_load_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_manifest(path)


def test_load_enforces_disjointness_too(tmp_path):
    # hand-written file that smuggles one group into both splits
    path = tmp_path / "m.csv"
    path.write_text(
        "# tempqt manifest version=1 seed=0\n"
        "dist_path,ref_path,score,ref_group,split\n"
        "a.pgm,r.pgm,0.5,g,train\n"
        "b.pgm,r.pgm,0.5,g,test\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="both splits"):
        load_manifest(path)


# ---------------------------------------------------------------------------
# synthetic generation


@pytest.fixture(scope="module")
def base_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("bases")
    paths = []
    for i in range(4):
        p = root / f"base{i}.pgm"
        save_image(ramp_image(16, 16, seed=i), p)
        paths.append(str(p))
    return paths


def test_generation_counts(base_paths, tmp_path):
    man = generate_synthetic_dataset(base_paths, seed=0, out_dir=str(tmp_path))
    # 4 bases x (1 pristine + 3 kinds x 5 severities)
    assert len(man.samples) == 4 * 16
    pristine = [s for s in man.samples if s.dist_path.endswith("_pristine.pgm")]
    assert len(pristine) == 4
    assert all(s.score == 1.0 for s in pristine)


def test_generation_scores_decrease_with_severity(base_paths, tmp_path):
    man = generate_synthetic_dataset(base_paths, seed=0, out_dir=str(tmp_path))
    by_family = {}
    for s in man.samples:
        if s.dist_path.endswith("_pristine.pgm"):
            continue
        stem, sev = s.dist_path.rsplit("_s", 1)
        by_family.setdefault(stem, []).append((int(sev[0]), s.score))
    for scores in by_family.values():
        ordered = [score for _, score in sorted(scores)]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))


def test_generation_deterministic_bytes(base_paths, tmp_path):
    roots = []
    for run in range(2):
        root = tmp_path / f"run{run}"
        root.mkdir()
        man = generate_synthetic_dataset(base_paths, seed=3, out_dir=str(root))
        save_manifest(man, root / "manifest.csv")
        roots.append(root)
    files0 = sorted(p.relative_to(roots[0]) for p in roots[0].rglob("*") if p.is_file())
    files1 = sorted(p.relative_to(roots[1]) for p in roots[1].rglob("*") if p.is_file())
    assert files0 == files1
    for rel in files0:
        assert (roots[0] / rel).read_bytes() == (roots[1] / rel).read_bytes()


def test_generation_validates_arguments(base_paths, tmp_path):
    with pytest.raises(ArgumentError, match="at least two"):
        generate_synthetic_dataset(base_paths[:1], seed=0, out_dir=str(tmp_path))
    with pytest.raises(ArgumentError, match="unknown distortion"):
        generate_synthetic_dataset(base_paths, kinds=("sharpen",), seed=0, out_dir=str(tmp_path))
    with pytest.raises(ArgumentError, match="severity"):
        generate_synthetic_dataset(base_paths, severities=(0,), seed=0, out_dir=str(tmp_path))
    with pytest.raises(ArgumentError, match="^kinds lists 'block_quantize' more than once$"):
        generate_synthetic_dataset(
            base_paths, kinds=("block_quantize", "block_quantize"), seed=0, out_dir=str(tmp_path)
        )
    with pytest.raises(ArgumentError, match="^severities lists 2 more than once$"):
        generate_synthetic_dataset(base_paths, severities=(2, 1, 2), seed=0, out_dir=str(tmp_path))
    assert list(tmp_path.rglob("*.pgm")) == []  # each is rejected before anything is written


@pytest.mark.parametrize("empty", ["kinds", "severities"])
def test_generation_rejects_an_empty_kinds_or_severities(base_paths, tmp_path, empty):
    # an empty product would write a pristine-only dataset
    out = tmp_path / "ds"
    with pytest.raises(ArgumentError, match=f"^{empty} must not be empty$"):
        generate_synthetic_dataset(base_paths, seed=0, out_dir=str(out), **{empty: ()})
    assert not out.exists()


# ---------------------------------------------------------------------------
# splitting


def manifest_with_groups(n):
    return DatasetManifest(1, 0, make_samples(n), ".")


def test_split_ceil_rule():
    out = split_by_reference(manifest_with_groups(10), 0.8, seed=0)
    train_groups = {s.ref_group for s in out.split_samples("train")}
    test_groups = {s.ref_group for s in out.split_samples("test")}
    assert len(train_groups) == 8
    assert len(test_groups) == 2
    assert not train_groups & test_groups


def test_split_never_empties_test_side():
    # ceil(0.9 * 2) == 2 would leave no test groups; the split backs off
    out = split_by_reference(manifest_with_groups(2), 0.9, seed=0)
    assert len({s.ref_group for s in out.split_samples("test")}) == 1


def test_split_deterministic_and_seed_sensitive():
    first = split_by_reference(manifest_with_groups(10), 0.8, seed=1)
    again = split_by_reference(manifest_with_groups(10), 0.8, seed=1)
    assert [s.split for s in first.samples] == [s.split for s in again.samples]
    assignments = {
        tuple(s.split for s in split_by_reference(manifest_with_groups(10), 0.8, seed=k).samples)
        for k in range(8)
    }
    assert len(assignments) > 1


def test_split_validates_arguments():
    with pytest.raises(ArgumentError, match="train_fraction"):
        split_by_reference(manifest_with_groups(4), 1.0, seed=0)
    with pytest.raises(DataError, match="two reference groups"):
        split_by_reference(manifest_with_groups(1), 0.5, seed=0)


@settings(max_examples=30, deadline=None)
@given(groups=st.integers(2, 24), fraction=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
def test_split_disjointness_property(groups, fraction, seed):
    out = split_by_reference(manifest_with_groups(groups), fraction, seed)
    train = {s.ref_group for s in out.split_samples("train")}
    test = {s.ref_group for s in out.split_samples("test")}
    assert not train & test
    assert train | test == {f"g{i}" for i in range(groups)}
    assert train and test


# ---------------------------------------------------------------------------
# patch sampling


def test_patch_geometry_matches_source():
    img = ramp_image(12, 9)
    patches = sample_patches(img, count=6, crop=5, seed=0, augment=False)
    assert len(patches) == 6
    flat = img.pixels
    for p in patches:
        assert p.shape == (5, 5)
        assert p.dtype == np.float32
        found = any(
            np.array_equal(flat[t : t + 5, l : l + 5], p)
            for t in range(12 - 5 + 1)
            for l in range(9 - 5 + 1)
        )
        assert found


def test_patch_full_crop_identity():
    img = ramp_image(8, 8)
    (patch,) = sample_patches(img, count=1, crop=8, seed=5, augment=False)
    assert np.array_equal(patch, img.pixels)


@pytest.mark.parametrize("augment", [False, True])
def test_patches_are_read_only_views_of_the_image(augment):
    img = ramp_image(12, 9)
    before = img.pixels.copy()
    crops = sample_patches(img, count=4, crop=5, seed=3, augment=augment) + eval_crops(img, 5)
    assert len(crops) == 4 + 5
    for crop in crops:
        assert crop.shape == (5, 5) and crop.dtype == np.float32
        assert np.shares_memory(crop, img.pixels)
        with pytest.raises(ValueError, match="read-only"):
            crop[0, 0] = 0.5
    assert img.pixels.flags.writeable
    assert np.array_equal(img.pixels, before)


def test_patch_determinism_and_pair_alignment():
    img = ramp_image(16, 16)
    other = GrayImage(16, 16, (1.0 - img.pixels).astype(np.float32))
    a = sample_patches(img, count=4, crop=6, seed=9, augment=True)
    b = sample_patches(other, count=4, crop=6, seed=9, augment=True)
    for pa, pb in zip(a, b):
        assert np.allclose(pa + pb, 1.0, atol=1e-6)


def test_patch_augment_produces_flips():
    img = ramp_image(16, 16)
    plain = sample_patches(img, count=16, crop=6, seed=2, augment=False)
    flipped = sample_patches(img, count=16, crop=6, seed=2, augment=True)
    assert any(
        not np.array_equal(p, f) for p, f in zip(plain, flipped)
    )


# ---------------------------------------------------------------------------
# eval crops


def test_eval_crops_exact_size_single():
    img = ramp_image(7, 7)
    crops = eval_crops(img, 7)
    assert len(crops) == 1
    assert np.array_equal(crops[0], img.pixels)


def test_eval_crops_double_size_five():
    img = ramp_image(10, 10)
    crops = eval_crops(img, 5)
    assert len(crops) == 5
    corners = [(0, 0), (0, 5), (5, 0), (5, 5), (2, 2)]
    for crop, (t, l) in zip(crops, corners):
        assert np.array_equal(crop, img.pixels[t : t + 5, l : l + 5])


def test_eval_crops_deterministic():
    img = ramp_image(9, 13)
    a = eval_crops(img, 4)
    b = eval_crops(img, 4)
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca, cb)


def test_image_batch_copies_crops_into_one_stack():
    img = ramp_image(12, 9)
    crops = tuple(sample_patches(img, count=4, crop=5, seed=3, augment=True))
    assert any(min(c.strides) < 0 for c in crops)  # flipped views
    batch = ImageBatch(crops)
    assert batch.pixels.shape == (4, 5, 5)
    assert batch.pixels.dtype == np.float32
    assert batch.pixels.tobytes() == np.stack(crops).tobytes()
    assert not np.shares_memory(batch.pixels, img.pixels)
    with pytest.raises(ArgumentError):
        ImageBatch([])
    with pytest.raises(ArgumentError):
        ImageBatch(())


def test_generated_images_loadable(base_paths, tmp_path):
    man = generate_synthetic_dataset(base_paths[:2], kinds=("white_noise",), severities=(1, 5), seed=0, out_dir=str(tmp_path))
    for s in man.samples:
        img = load_image(man.resolve(s.dist_path))
        assert (img.height, img.width) == (16, 16)
