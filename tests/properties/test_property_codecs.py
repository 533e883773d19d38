"""Property-based tests: the fast codecs equal their reference forms.

``encode_ids`` / ``decode_ids`` read and write one-byte varints inline,
and ``canonical_item_bytes`` builds its fields with ``%``-formatting.
Every stored blob, content-addressed range key, checksum stamp, ledger
hash and epoch digest depends on these bytes, so the fast forms must
match the straightforward implementations kept below byte for byte —
results and errors alike.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.indexing.checksums import canonical_item_bytes
from repro.xmldb.encoding import decode_ids, encode_ids
from repro.xmldb.ids import NodeID

# -- reference implementations (the plain per-varint loops) -----------------


def _ref_write_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise EncodingError("varints are unsigned, got {}".format(value))
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _ref_read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise EncodingError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise EncodingError("varint too long")


def ref_encode_ids(ids) -> bytes:
    out = bytearray()
    _ref_write_varint(len(ids), out)
    previous_pre = 0
    for node_id in ids:
        delta = node_id.pre - previous_pre
        if delta <= 0:
            raise EncodingError(
                "IDs must be strictly sorted by pre; got {} after pre={}".format(
                    node_id, previous_pre))
        _ref_write_varint(delta, out)
        _ref_write_varint(node_id.post, out)
        _ref_write_varint(node_id.depth, out)
        previous_pre = node_id.pre
    return bytes(out)


def ref_decode_ids(data: bytes) -> List[NodeID]:
    count, pos = _ref_read_varint(data, 0)
    ids: List[NodeID] = []
    pre = 0
    for _ in range(count):
        delta, pos = _ref_read_varint(data, pos)
        post, pos = _ref_read_varint(data, pos)
        depth, pos = _ref_read_varint(data, pos)
        pre += delta
        ids.append(NodeID(pre, post, depth))
    if pos != len(data):
        raise EncodingError("{} trailing bytes".format(len(data) - pos))
    return ids


def ref_canonical_item_bytes(hash_key, attributes) -> bytes:
    parts = [b"k", str(len(hash_key)).encode("ascii"), b":",
             hash_key.encode("utf-8")]
    for name in sorted(attributes):
        if name.startswith("#"):
            continue
        encoded = name.encode("utf-8")
        parts.extend([b"a", str(len(encoded)).encode("ascii"), b":", encoded])
        for value in attributes[name]:
            raw = value if isinstance(value, bytes) else value.encode("utf-8")
            parts.extend([b"v", str(len(raw)).encode("ascii"), b":", raw])
    return b"".join(parts)


def outcome(function, *args):
    """A call's result, or its error's type and message."""
    try:
        return ("ok", function(*args))
    except Exception as exc:  # the comparison is the point
        return ("error", type(exc).__name__, str(exc))


# -- strategies ------------------------------------------------------------------

#: Values on both sides of the one-byte (127/128) and two-byte
#: (16383/16384) varint boundaries, plus zero and large values.
EDGES = (0, 1, 126, 127, 128, 129, 16382, 16383, 16384, 16385,
         2 ** 21 - 1, 2 ** 21)
edge_value = st.one_of(st.sampled_from(EDGES), st.integers(0, 2 ** 40))
edge_delta = st.one_of(st.sampled_from(EDGES[1:]), st.integers(1, 2 ** 40))


@st.composite
def edge_id_lists(draw, max_size: int = 40) -> List[NodeID]:
    """Strictly pre-sorted ID lists whose fields sit on varint edges."""
    deltas = draw(st.lists(edge_delta, max_size=max_size))
    ids: List[NodeID] = []
    pre = 0
    for delta in deltas:
        pre += delta
        ids.append(NodeID(pre, draw(edge_value), draw(edge_value)))
    return ids


#: Names: non-ASCII text, ``#``-prefixed bookkeeping names, plain URIs.
names = st.one_of(st.text(max_size=12),
                  st.text(max_size=8).map(lambda name: "#" + name),
                  st.sampled_from(["d1.xml", "#crc", "été.xml", "文書.xml"]))
values = st.one_of(st.text(max_size=20), st.binary(max_size=40))
attribute_maps = st.dictionaries(names, st.lists(values, max_size=3).map(tuple),
                                 max_size=5)


# -- properties ------------------------------------------------------------------


@given(edge_id_lists())
@settings(max_examples=150)
def test_encode_ids_matches_reference(ids):
    assert encode_ids(ids) == ref_encode_ids(ids)
    assert encode_ids(tuple(ids)) == ref_encode_ids(ids)


@given(edge_id_lists())
@settings(max_examples=150)
def test_decode_ids_matches_reference(ids):
    blob = ref_encode_ids(ids)
    assert decode_ids(blob) == ref_decode_ids(blob) == ids


@given(st.one_of(st.binary(max_size=60),
                 edge_id_lists(max_size=6).map(ref_encode_ids).flatmap(
                     lambda blob: st.sampled_from([
                         blob[:-1], blob + b"\x00", b"\xff" * 10 + blob,
                         blob[:1] + b"\x80" + blob[1:]]))))
@settings(max_examples=200)
def test_decode_ids_rejects_garbage_like_the_reference(data):
    assert outcome(decode_ids, data) == outcome(ref_decode_ids, data)


@given(st.lists(st.tuples(st.integers(-3, 200), st.integers(-2, 20000),
                          st.integers(-2, 20000)), max_size=8))
@settings(max_examples=150)
def test_encode_ids_rejects_bad_input_like_the_reference(rows):
    ids = [NodeID(*row) for row in rows]
    assert outcome(encode_ids, ids) == outcome(ref_encode_ids, ids)


@given(st.one_of(st.text(max_size=16),
                 st.sampled_from(["wOlympia", "é", "名前", "#k"])),
       attribute_maps)
@settings(max_examples=150)
def test_canonical_item_bytes_matches_reference(hash_key, attributes):
    assert (canonical_item_bytes(hash_key, attributes)
            == ref_canonical_item_bytes(hash_key, attributes))
