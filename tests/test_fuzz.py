"""Mutation fuzzing of every text parser: whatever bytes arrive, a parser
either returns or raises a ToolkitError, never a bare Python exception."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from visrec.errors import ToolkitError
from visrec.featureio import read_feature_csv, read_keyframe_manifest
from visrec.media import FrameStream, parse_ppm, parse_y4m, write_ppm, write_y4m
from visrec.recsys import load_ratings_csv
from visrec.textfeat import load_movies_csv, load_tags_csv

from conftest import random_frame

# bytes that split or extend a field: separators, digits and the odd letter
_INSERTS = b",\n\r \":|#.-+eE0123456789x"


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` with one to four byte flips, cuts or inserted bytes."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "cut", "truncate", "insert"]))
        pos = draw(st.integers(0, len(out)))
        if op == "flip" and pos < len(out):
            out[pos] = draw(st.integers(0, 255))
        elif op == "cut":
            del out[pos : pos + draw(st.integers(1, 8))]
        elif op == "truncate":
            del out[pos:]
        else:
            out[pos:pos] = bytes(draw(st.lists(st.sampled_from(_INSERTS), min_size=1, max_size=4)))
    return bytes(out)


_RNG = np.random.default_rng(3)
_Y4M = write_y4m(FrameStream([random_frame(_RNG, width=4, height=4) for _ in range(2)]))
_PPM = write_ppm(random_frame(_RNG, width=3, height=2))
_FEATURES = b"movie_id,keyframe_index,kind,v0,v1,v2\n1,0,FUSED,0.5,-1.25,3\n2,7,FUSED,0,1e-3,4\n"
_MANIFEST = b"movie_id,keyframe_index\n1,0\n1,7\n2,3\n"
_RATINGS = b"userId,movieId,rating,timestamp\n1,10,4.0,100\n1,20,2.5,101\n2,10,5,102\n"
_MOVIES = b'movieId,title,genres\n10,Example One,Action|Thriller\n20,"Two, Too",Comedy\n'
_TAGS = b"userId,movieId,tag,timestamp\n1,10,space,100\n2,10,Space,101\n1,20,paris,102\n"


def _on_file(parse):
    def run(data, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(data)
        return parse(path)
    return run


# name -> (valid input, run(data, tmp_path))
PARSERS = {
    "parse_y4m": (_Y4M, lambda data, _: parse_y4m(data)),
    "parse_ppm": (_PPM, lambda data, _: parse_ppm(data)),
    "read_feature_csv": (_FEATURES, _on_file(read_feature_csv)),
    "read_keyframe_manifest": (_MANIFEST, _on_file(read_keyframe_manifest)),
    "load_ratings_csv": (_RATINGS, _on_file(load_ratings_csv)),
    "load_movies_csv": (_MOVIES, _on_file(load_movies_csv)),
    "load_tags_csv": (_TAGS, _on_file(load_tags_csv)),
}


@pytest.mark.parametrize("name", PARSERS)
def test_seed_input_parses(name, tmp_path):
    seed, run = PARSERS[name]
    run(seed, tmp_path)


@pytest.mark.parametrize("name", PARSERS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_returns_or_raises_toolkit_error(name, tmp_path, data):
    seed, run = PARSERS[name]
    mutated = data.draw(mutations(seed), label="input")
    try:
        run(mutated, tmp_path)
    except ToolkitError:
        pass
