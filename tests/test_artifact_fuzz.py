"""Property test: a mutated, re-sealed artifact raises only ArtifactError,
and verify reports on any artifact that loads without raising."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fxlink.paramdelivery import (ArtifactError, load_artifact,  # noqa: E402
                                  verify)
from test_paramdelivery import (BASE_HEADER, BASE_PAYLOAD,  # noqa: E402
                                head_text, seal)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


def _flip(data: bytes, draw) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


@st.composite
def mutated_artifacts(draw):
    header = json.loads(json.dumps(BASE_HEADER))
    payload = BASE_PAYLOAD
    kind = draw(st.sampled_from(["truncate", "flip", "drop", "retype",
                                 "dims", "qformat"]))
    if kind == "drop":
        del header[draw(st.sampled_from(sorted(header)))]
    elif kind == "retype":
        header[draw(st.sampled_from(sorted(header)))] = draw(json_values)
    elif kind == "dims":
        dims = header[draw(st.sampled_from(["encoder_dims",
                                            "decoder_dims"]))]
        dims[draw(st.integers(0, len(dims) - 1))] = draw(
            st.sampled_from([0, -1, -8, 2 ** 31, 2 ** 63, 2 ** 70])
            | st.integers(-2 ** 70, 2 ** 70))
    elif kind == "qformat":
        # near-valid dicts as well as any JSON value
        fields = (st.sampled_from([0, 3, 8, 16, 31, 32, 33, 99, 16.0, True])
                  | st.integers(-2 ** 70, 2 ** 70) | json_values)
        header["qformat"] = draw(json_values | st.dictionaries(
            st.sampled_from(["total_bits", "int_bits", "frac_bits"]),
            fields, max_size=3))
    head = head_text(header)
    in_head = draw(st.booleans())
    if kind == "truncate" and in_head:
        head = head[:draw(st.integers(0, len(head)))]
    elif kind == "truncate":
        payload = payload[:draw(st.integers(0, len(payload)))]
    elif kind == "flip" and in_head:
        head = _flip(head, draw)
    elif kind == "flip":
        payload = _flip(payload, draw)
    return seal(head, payload)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=mutated_artifacts())
def test_mutated_artifact_raises_only_artifact_error(tmp_path, blob):
    path = tmp_path / "m.fxl"
    path.write_bytes(blob)
    try:
        art = load_artifact(path)
    except ArtifactError:
        return
    verify(art)     # reports, and raises nothing, on what loads
    try:
        art.to_model()
    except ArtifactError:
        pass
