"""Seeded corpus generators for the benchmark workloads.

Everything the program reads is written here, from ``--seed`` alone, with the
toolkit's own public writers (``media.write_y4m``,
``featureio.write_feature_bin``) plus plain MovieLens-layout CSV files. Each
generator returns the ground truth the output checks compare against.

Sizes are fixed per workload and only content varies with the seed, so every
seed asks the program for the same amount of work.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from visrec.featureio import FeatureRecord, FeatureVector, write_feature_bin
from visrec.media import FrameBuffer, FrameStream, hsv_to_rgb, write_y4m

# trailers: 4 trailers x 2 shots x 24 frames (1 s at 24 fps) at 320x240 4:2:0
TRAILERS = 4
SHOTS_PER_TRAILER = 2
FRAMES_PER_SHOT = 24
FRAME_W, FRAME_H = 320, 240
FPS = 24.0
TRAILER_USERS = 40

# ratings / serve: MovieLens-shaped catalogue in taste clusters
ITEMS = 160
CLUSTERS = 8
RATING_USERS = 300
HIGH_PER_USER = 8
LOW_PER_USER = 3
TAGS_PER_CLUSTER = 6
RELEVANCE_THRESHOLD = 4.0

_GENRES = (
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)
_TAG_WORDS = (
    "gritty", "neon", "slow burn", "whimsical", "car chase", "courtroom",
    "space", "heist", "romance", "ghosts", "desert", "sea", "robots", "dance",
    "family", "war", "detective", "magic", "sports", "music", "zombies",
    "politics", "cooking", "trains", "snow", "jungle", "prison", "school",
    "vampires", "pirates", "aliens", "cowboys", "samurai", "hackers", "spies",
    "dragons", "time travel", "road trip", "wedding", "survival", "satire",
    "noir", "surreal", "biopic", "monsters", "clowns", "submarine", "festival",
)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _shot_frames(rng: np.random.Generator, hue: float) -> list[FrameBuffer]:
    """One textured shot: a base colour modulated by a value-only noise field,
    crossed by stripes of a second hue, panning 2 px per frame. The pan keeps
    every frame distinct while the colour histogram stays that of the shot."""
    base = np.array(hsv_to_rgb(hue, rng.uniform(0.6, 0.9), rng.uniform(0.6, 0.9)), float)
    stripe = np.array(hsv_to_rgb(hue + 30.0, 0.8, rng.uniform(0.3, 0.5)), float)
    coarse = rng.uniform(0.75, 1.25, size=(FRAME_H // 8, FRAME_W // 8))
    gain = np.kron(coarse, np.ones((8, 8)))[..., None]
    img = base * gain
    period = int(rng.integers(12, 24))
    cols = (np.arange(FRAME_W) % period) < period // 3
    img[:, cols] = stripe
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return [FrameBuffer(np.roll(img, 2 * f, axis=1)) for f in range(FRAMES_PER_SHOT)]


def _embedding(rng: np.random.Generator, group: int) -> np.ndarray:
    base = np.zeros(1024)
    base[group * 512 : (group + 1) * 512] = 3.0
    return np.abs(base + 0.3 * rng.standard_normal(1024))


def _config(out: Path, seed: int, **fields) -> Path:
    config = {"cache_dir": "cache", "seed": seed, "gamma": 1e-4,
              "learning_rate": 0.05, "relevance_threshold": RELEVANCE_THRESHOLD}
    config.update(fields)
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def make_trailers(out: Path, seed: int) -> dict:
    """Y4M trailers, one DNN embedding per true keyframe, and a small rating
    corpus over the trailers. Adjacent shots get hues at least 120 degrees
    apart so every generated cut is a true one."""
    rng = np.random.default_rng([seed, 1])
    videos = out / "videos"
    videos.mkdir(parents=True, exist_ok=True)
    truth = {"cuts": {}, "keyframes": {}}
    embeddings = []
    for movie in range(1, TRAILERS + 1):
        hue = rng.uniform(0.0, 360.0)
        frames: list[FrameBuffer] = []
        keyframes = []
        for _ in range(SHOTS_PER_TRAILER):
            start = len(frames)
            frames.extend(_shot_frames(rng, hue))
            keyframes.append((start + len(frames) - 1) // 2)
            hue = (hue + rng.uniform(120.0, 240.0)) % 360.0
        (videos / f"{movie}.y4m").write_bytes(write_y4m(FrameStream(frames, frame_rate=FPS)))
        truth["cuts"][movie] = [FRAMES_PER_SHOT * (s + 1) - 1 for s in range(SHOTS_PER_TRAILER - 1)]
        truth["keyframes"][movie] = keyframes
        group = (movie - 1) * 2 // TRAILERS
        for kf in keyframes:
            embeddings.append(FeatureRecord(movie, kf, FeatureVector("DNN", _embedding(rng, group))))
    write_feature_bin(out / "embeddings.bin", embeddings)

    movies = range(1, TRAILERS + 1)
    groups = {m: (m - 1) * 2 // TRAILERS for m in movies}
    ratings = []
    stamp = 1_400_000_000
    # every user rates the two movies of their group high and one other low,
    # so every served list has the same length
    for user in range(1, TRAILER_USERS + 1):
        group = user % 2
        liked = [m for m in movies if groups[m] == group]
        other = [m for m in movies if groups[m] != group]
        for m in liked:
            ratings.append((user, m, float(rng.choice([4.0, 4.5, 5.0])), stamp))
            stamp += 60
        ratings.append((user, int(rng.choice(other)), float(rng.choice([1.0, 2.0, 3.0])), stamp))
        stamp += 60
    _write_csv(out / "ratings.csv", ["userId", "movieId", "rating", "timestamp"], ratings)
    _write_csv(out / "movies.csv", ["movieId", "title", "genres"],
               [(m, f"Trailer {m}", "Action|Thriller" if groups[m] == 0 else "Comedy|Romance")
                for m in movies])
    words = rng.permutation(_TAG_WORDS)
    _write_csv(out / "tags.csv", ["userId", "movieId", "tag", "timestamp"],
               [(1 + i, m, words[groups[m] * 3 + i % 3], 1_450_000_000 + i)
                for i, m in enumerate(list(movies) * 3)])
    truth["keyframes_total"] = TRAILERS * SHOTS_PER_TRAILER
    truth["cuts_total"] = TRAILERS * (SHOTS_PER_TRAILER - 1)
    truth["config"] = str(_config(
        out, seed, videos_dir="videos", ratings="ratings.csv", tags="tags.csv",
        movies="movies.csv", embeddings="embeddings.bin", alpha=0.6, epochs=4,
        lsa_rank=2, folds=5, families=["fused"]))
    return truth


def make_ratings(out: Path, seed: int, epochs: int) -> dict:
    """MovieLens-shaped ratings, movies and tags: ITEMS items in CLUSTERS
    taste clusters with per-cluster genres and tags; each user rates
    HIGH_PER_USER items of one cluster high and LOW_PER_USER others low.
    The truth records each user's cluster (``taste``) and the number of
    relevant (high) ratings."""
    rng = np.random.default_rng([seed, 2])
    out.mkdir(parents=True, exist_ok=True)
    cluster_of = {m: (m - 1) % CLUSTERS for m in range(1, ITEMS + 1)}
    members = {c: [m for m, k in cluster_of.items() if k == c] for c in range(CLUSTERS)}
    ratings = []
    relevant = 0
    taste = {}
    stamp = 1_400_000_000
    for user in range(1, RATING_USERS + 1):
        own = int(rng.integers(CLUSTERS))
        taste[user] = members[own]
        liked = rng.choice(members[own], size=HIGH_PER_USER, replace=False)
        others = [m for m in range(1, ITEMS + 1) if cluster_of[m] != own]
        disliked = rng.choice(others, size=LOW_PER_USER, replace=False)
        for m in liked:
            ratings.append((user, int(m), float(rng.choice([4.0, 4.5, 5.0])), stamp))
            stamp += 60
        for m in disliked:
            ratings.append((user, int(m), float(rng.choice([1.0, 2.0, 2.5, 3.0])), stamp))
            stamp += 60
        relevant += HIGH_PER_USER
    _write_csv(out / "ratings.csv", ["userId", "movieId", "rating", "timestamp"], ratings)

    genre_sets = [rng.choice(_GENRES, size=2, replace=False) for _ in range(CLUSTERS)]
    _write_csv(out / "movies.csv", ["movieId", "title", "genres"],
               [(m, f"Movie {m}", "|".join(genre_sets[cluster_of[m]])) for m in range(1, ITEMS + 1)])
    words = rng.permutation(_TAG_WORDS)
    vocab = [words[c * TAGS_PER_CLUSTER : (c + 1) * TAGS_PER_CLUSTER] for c in range(CLUSTERS)]
    tags = []
    for m in range(1, ITEMS + 1):
        for tag in rng.choice(vocab[cluster_of[m]], size=int(rng.integers(3, 6)), replace=False):
            tags.append((int(rng.integers(1, RATING_USERS + 1)), m, tag, 1_450_000_000 + len(tags)))
    _write_csv(out / "tags.csv", ["userId", "movieId", "tag", "timestamp"], tags)
    return {
        "relevant_entries": relevant,
        "taste": taste,
        "config": str(_config(out, seed, ratings="ratings.csv", tags="tags.csv",
                              movies="movies.csv", alpha=0.6, epochs=epochs,
                              lsa_rank=32, folds=5, families=["tag-lsa"])),
    }
