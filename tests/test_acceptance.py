"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s or look at the -v test names)."""

import os
import time

import numpy as np
import pytest

from visrec.aggregate import AggregationKind, aggregate
from visrec.descriptors import cld, csd, ehd, htd, mpeg7_all, scd
from visrec.evaluation import collect_observations, compute_metrics
from visrec.fusion import fit_cca
from visrec.media import FrameBuffer, FrameStream, hsv_to_rgb, parse_y4m, write_y4m
from visrec.minidata import generate
from visrec.pipeline import PipelineConfig, run_stage
from visrec.recsys import TrainConfig, train_collective_slim
from visrec.shots import detect_shots

from conftest import solid_frame
from datasets import cold_item_dataset, two_block_dataset
from oracles import cca_correlations_oracle, metrics_oracle


def report(criterion, message):
    print(f"[criterion {criterion:02d}] PASS: {message}")


EXPECTED_LENGTHS = {"scd": 256, "csd": 256, "cld": 120, "ehd": 80, "htd": 62}


def test_criterion_01_descriptor_dimensionality():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(50):
        w = 2 * int(rng.integers(16, 49))
        h = 2 * int(rng.integers(16, 49))
        frame = FrameBuffer(rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8))
        assert len(scd(frame)) == 256
        assert len(csd(frame)) == 256
        assert len(cld(frame)) == 120
        assert len(ehd(frame)) == 80
        assert len(htd(frame)) == 62
        assert len(mpeg7_all(frame)) == 774
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(1, f"50 frames, all descriptor lengths and 774-concat in {elapsed:.1f}s")


def _random_segmented_stream(rng):
    """Solid-color segments with hues far enough apart that adjacent shots
    never share a histogram cell."""
    n_segments = int(rng.integers(2, 6))
    hues = (rng.integers(0, 8) * 45.0 + np.arange(n_segments) * 45.0) % 360.0
    frames = []
    boundaries = []
    for seg in range(n_segments):
        color = hsv_to_rgb(float(hues[seg]), 0.9, 0.9)
        length = int(rng.integers(5, 16))
        frames.extend([solid_frame(color, 32, 32)] * length)
        if seg < n_segments - 1:
            boundaries.append(len(frames) - 1)
    return FrameStream(frames, frame_rate=24.0), tuple(boundaries)


def test_criterion_02_shot_segmentation_oracle():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    for _ in range(20):
        stream, truth = _random_segmented_stream(rng)
        decoded = parse_y4m(write_y4m(stream))
        shots = detect_shots(decoded, threshold=0.75)
        assert shots.boundaries == truth
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, f"20 synthetic streams segmented exactly in {elapsed:.1f}s")


def test_criterion_03_descriptor_invariants():
    for color in ((128, 128, 128), (200, 40, 90), (0, 0, 0), (255, 255, 255)):
        frame = solid_frame(color, 48, 48)
        assert np.abs(ehd(frame).values).max() == 0.0
        assert np.abs(htd(frame).values[2:]).max() < 1e-9
        cld_vals = cld(frame).values
        ac = [v for i, v in enumerate(cld_vals) if i not in (0, 40, 80)]
        assert max(abs(v) for v in ac) < 1e-9
        assert abs(scd(frame).values.sum() - 1.0) <= 1e-9
        assert abs(csd(frame).values.sum() - 1.0) <= 1e-9
    report(3, "solid frames: zero EHD, zero HTD energies, zero CLD AC, unit masses")


def test_criterion_04_aggregation_algebra():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        length = int(rng.integers(2, 12))
        count = int(rng.integers(1, 8))
        vs = rng.normal(size=(count, length)) * 10  # one keyframe vector a row
        inter = aggregate(vs, AggregationKind.INTERSECTION)
        med = aggregate(vs, AggregationKind.MEDIAN)
        avg = aggregate(vs, AggregationKind.AVERAGE)
        union = aggregate(vs, AggregationKind.UNION)
        assert (inter <= med).all() and (med <= union).all()
        assert (inter <= avg + 1e-12).all() and (avg <= union + 1e-12).all()
        perm = vs[rng.permutation(count)]
        for kind in AggregationKind:
            assert np.array_equal(aggregate(vs, kind), aggregate(perm, kind))
    report(4, "1000 random sets: ordering chain and bit-exact permutation invariance")


def test_criterion_05_cca_oracle():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(1000 + trial)
        X = rng.normal(size=(30, 4))
        Y = 0.6 * X[:, :3] + rng.normal(size=(30, 3))
        model = fit_cca(X, Y, ridge=0.0)
        expected = cca_correlations_oracle(X, Y, k=3)
        worst = max(worst, float(np.abs(model.correlations - expected).max()))
    assert worst <= 1e-3
    rng = np.random.default_rng(55)
    X = rng.normal(size=(30, 4))
    self_corr = fit_cca(X, X.copy(), ridge=0.0).correlations
    assert np.abs(self_corr - 1.0).max() <= 1e-8
    report(5, f"10 random pairs within {worst:.1e} of the grid oracle; self-correlation 1")


def _pairwise_auc(R, S, held_out, tie_rng=None):
    aucs = []
    for user, item in held_out:
        u = R.user_index(user)
        rated, values = R.user_ratings(u)
        row = np.zeros(R.n_items)
        row[rated] = values
        scores = row @ S
        if tie_rng is not None:
            scores = scores + tie_rng.random(len(scores)) * 1e-9
        t = R.item_index(item)
        mask = np.ones(R.n_items, dtype=bool)
        mask[rated] = False
        mask[t] = False
        others = scores[mask]
        wins = (scores[t] > others).sum() + 0.5 * (scores[t] == others).sum()
        aucs.append(wins / len(others))
    return float(np.mean(aucs))


def test_criterion_06_learning_signal():
    R, F, held_out = two_block_dataset(n_users=50, n_items=20, rated_per_user=9, seed=5)
    start = time.monotonic()
    model = train_collective_slim(
        R, F, TrainConfig(alpha=0.5, epochs=30, learning_rate=0.05, seed=4)
    )
    elapsed = time.monotonic() - start
    trained_auc = _pairwise_auc(R, model.matrix, held_out)
    null_auc = _pairwise_auc(
        R, np.zeros((R.n_items, R.n_items)), held_out,
        tie_rng=np.random.default_rng(0),
    )
    assert elapsed < 60.0
    assert trained_auc >= 0.90
    assert null_auc <= 0.55
    report(6, f"AUC {trained_auc:.3f} vs untrained {null_auc:.3f}, trained in {elapsed:.1f}s")


def test_criterion_07_side_information_helps_cold_items():
    R, F, cold, test_positives = cold_item_dataset(seed=9)
    assert len(cold) / R.n_items == pytest.approx(0.30)
    held_out = np.rec.fromarrays(
        ([R.user_index(user) for user, _ in test_positives],
         [R.item_index(item) for _, item in test_positives],
         np.full(len(test_positives), 5.0)), names="user,item,rating")
    recall = {}
    for alpha in (0.5, 1.0):
        model = train_collective_slim(
            R, F, TrainConfig(alpha=alpha, epochs=30, learning_rate=0.05, seed=4)
        )
        ranked, skipped = collect_observations(model, R, held_out)
        assert skipped == 0
        recall[alpha] = (ranked["rank"] <= 10).sum() / len(test_positives)
    gap = recall[0.5] - recall[1.0]
    assert gap >= 0.10
    report(7, f"cold recall@10: alpha=0.5 {recall[0.5]:.3f} vs alpha=1 {recall[1.0]:.3f} (gap {gap:.3f})")


def test_criterion_08_metric_oracle():
    raw = [
        (1, 1), (1, 12), (1, 25),
        (2, 3), (2, 18),
        (3, 2),
        (4, 9), (4, 40), (4, 41), (4, 55),
        (5, 21),
    ]
    metrics = compute_metrics([u for u, _ in raw], [r for _, r in raw], cutoffs=(1, 10, 20))
    for n in (1, 10, 20):
        expected = metrics_oracle(raw, n)
        for (family, metric), value in expected.items():
            assert metrics[(family, metric, n)] == pytest.approx(value, abs=1e-12)
        assert metrics[("protocol", "precision", n)] * n == pytest.approx(
            metrics[("protocol", "recall", n)]
        )
    for family in ("protocol", "standard"):
        assert (metrics[(family, "recall", 1)] <= metrics[(family, "recall", 10)]
                <= metrics[(family, "recall", 20)])
    report(8, "5-user toy matches enumeration; identity and monotonicity hold")


def _full_run(root, seed):
    config_path = generate(root, seed=seed)
    cfg = PipelineConfig.from_json(config_path)
    for stage in ("segment", "extract", "aggregate", "fuse", "textfeat"):
        run_stage(stage, cfg)
    reports = {}
    for family in cfg.families:
        run_stage("evaluate", cfg, family=family)
        path = cfg.cache_dir / "evaluate" / f"report_{family}.csv"
        reports[family] = path.read_bytes()
    return reports


def test_criterion_09_end_to_end_determinism(tmp_path):
    start = time.monotonic()
    first = _full_run(tmp_path / "run1", seed=7)
    second = _full_run(tmp_path / "run2", seed=7)
    elapsed = time.monotonic() - start
    assert set(first) == set(second)
    for family in first:
        assert first[family] == second[family], f"report for {family} differs"
    assert elapsed < 300.0
    report(9, f"two full runs byte-identical across {len(first)} families in {elapsed:.0f}s")


@pytest.mark.skipif(
    "VISREC_CORPUS_CONFIG" not in os.environ,
    reason="corpus-scale check needs VISREC_CORPUS_CONFIG pointing at a "
    "pipeline config with real ratings and per-movie feature files",
)
def test_criterion_10_corpus_scale_ordering():
    cfg = PipelineConfig.from_json(os.environ["VISREC_CORPUS_CONFIG"])
    recalls = {}
    for family in ("mpeg7", "tag-lsa"):
        run_stage("evaluate", cfg, family=family, force=True)
        path = cfg.cache_dir / "evaluate" / f"report_{family}.csv"
        for line in path.read_text().splitlines():
            parts = line.split(",")
            if parts[:4] == ["protocol", "recall", "10", "mean"]:
                recalls[family] = float(parts[4])
    assert recalls["mpeg7"] > recalls["tag-lsa"]
    report(10, f"recall@10 ordering holds: mpeg7 {recalls['mpeg7']:.4f} > "
               f"tag-lsa {recalls['tag-lsa']:.4f}")
