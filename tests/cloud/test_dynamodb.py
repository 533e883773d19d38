"""Unit tests for the simulated DynamoDB key-value store."""

import pytest

from repro.cloud.dynamodb import (BATCH_GET_LIMIT, BATCH_PUT_LIMIT,
                                  DynamoItem, MAX_ITEM_BYTES)
from repro.errors import (ItemTooLarge, NoSuchTable, TableAlreadyExists,
                          ValidationError)


@pytest.fixture
def db(cloud):
    cloud.dynamodb.create_table("idx")
    return cloud.dynamodb


def _item(hash_key, range_key, uri="doc.xml", values=("",)):
    return DynamoItem(hash_key=hash_key, range_key=range_key,
                      attributes={uri: tuple(values)})


def test_duplicate_table_rejected(db):
    with pytest.raises(TableAlreadyExists):
        db.create_table("idx")


def test_unknown_table_raises(cloud):
    def scenario():
        yield from cloud.dynamodb.get("nope", "k")
    with pytest.raises(NoSuchTable):
        cloud.env.run_process(scenario())


def test_put_get_round_trip(cloud, db):
    def scenario():
        yield from db.put("idx", _item("ename", "u1"))
        items = yield from db.get("idx", "ename")
        return items
    items = cloud.env.run_process(scenario())
    assert len(items) == 1
    assert items[0].attributes == {"doc.xml": ("",)}


def test_get_unknown_key_returns_empty(cloud, db):
    def scenario():
        return (yield from db.get("idx", "missing"))
    assert cloud.env.run_process(scenario()) == []


def test_same_primary_key_replaces(cloud, db):
    """§6: "the new item completely replaces the existing one"."""
    def scenario():
        yield from db.put("idx", _item("k", "same-range", "a.xml"))
        yield from db.put("idx", _item("k", "same-range", "b.xml"))
        return (yield from db.get("idx", "k"))
    items = cloud.env.run_process(scenario())
    assert len(items) == 1
    assert "b.xml" in items[0].attributes


def test_distinct_range_keys_coexist(cloud, db):
    """The UUID-range-key trick: same hash key, different range keys."""
    def scenario():
        yield from db.put("idx", _item("k", "uuid-1", "a.xml"))
        yield from db.put("idx", _item("k", "uuid-2", "b.xml"))
        return (yield from db.get("idx", "k"))
    items = cloud.env.run_process(scenario())
    assert len(items) == 2


def test_range_key_condition(cloud, db):
    def scenario():
        yield from db.put("idx", _item("k", "a-1"))
        yield from db.put("idx", _item("k", "b-2"))
        return (yield from db.get("idx", "k",
                                  condition=lambda rk: rk.startswith("a")))
    items = cloud.env.run_process(scenario())
    assert [item.range_key for item in items] == ["a-1"]


def test_missing_range_key_rejected(cloud, db):
    bad = DynamoItem(hash_key="k", range_key=None, attributes={})

    def scenario():
        yield from db.put("idx", bad)
    with pytest.raises(ValidationError):
        cloud.env.run_process(scenario())


def test_item_size_limit_enforced(cloud, db):
    huge = DynamoItem(hash_key="k", range_key="r",
                      attributes={"uri": (b"x" * (MAX_ITEM_BYTES + 1),)})

    def scenario():
        yield from db.put("idx", huge)
    with pytest.raises(ItemTooLarge):
        cloud.env.run_process(scenario())


def test_item_size_counts_keys_names_values():
    item = DynamoItem(hash_key="hh", range_key="rrr",
                      attributes={"name": ("ab", b"cde")})
    assert item.size_bytes == 2 + 3 + 4 + 2 + 3


def test_batch_put_limit(cloud, db):
    items = [_item("k", "r{}".format(i)) for i in range(BATCH_PUT_LIMIT + 1)]

    def scenario():
        yield from db.batch_put("idx", items)
    with pytest.raises(ValidationError):
        cloud.env.run_process(scenario())


def test_batch_put_bills_per_row(cloud, db):
    items = [_item("k", "r{}".format(i)) for i in range(10)]

    def scenario():
        yield from db.batch_put("idx", items)
    cloud.env.run_process(scenario())
    assert cloud.meter.request_count("dynamodb", "put") == 10


def test_batch_get(cloud, db):
    def scenario():
        yield from db.put("idx", _item("k1", "r"))
        yield from db.put("idx", _item("k2", "r"))
        return (yield from db.batch_get("idx", ["k1", "k2", "k3"]))
    result = cloud.env.run_process(scenario())
    assert len(result["k1"]) == 1
    assert len(result["k2"]) == 1
    assert result["k3"] == []


def test_batch_get_limit(cloud, db):
    keys = ["k{}".format(i) for i in range(BATCH_GET_LIMIT + 1)]

    def scenario():
        yield from db.batch_get("idx", keys)
    with pytest.raises(ValidationError):
        cloud.env.run_process(scenario())


def test_write_throughput_serializes_writers(cloud, db):
    """Concurrent writers queue on provisioned capacity (Figure 10)."""
    env = cloud.env
    payload = b"x" * 51200  # 50 KB per item
    finishes = []

    def writer(i):
        item = DynamoItem("k", "r{}".format(i), {"uri": (payload,)})
        yield from db.put("idx", item)
        finishes.append(env.now)

    for i in range(4):
        env.process(writer(i))
    env.run()
    gaps = [b - a for a, b in zip(finishes, finishes[1:])]
    assert all(gap > 0.1 for gap in gaps), \
        "writers should serialize on the write limiter: {}".format(finishes)


def test_storage_accounting(cloud, db):
    def scenario():
        yield from db.put("idx", _item("k", "r", values=("payload",)))
    cloud.env.run_process(scenario())
    assert db.raw_bytes(["idx"]) > 0
    assert db.overhead_bytes(["idx"]) == \
        cloud.profile.dynamodb_overhead_bytes_per_item
    assert db.stored_bytes(["idx"]) == \
        db.raw_bytes(["idx"]) + db.overhead_bytes(["idx"])


def test_delete_table(cloud, db):
    db.delete_table("idx")
    with pytest.raises(NoSuchTable):
        db.table("idx")


def _fresh_size(item):
    """``size_bytes`` recomputed from the item's current content."""
    size = len(item.hash_key.encode("utf-8"))
    if item.range_key is not None:
        size += len(item.range_key.encode("utf-8"))
    for name, values in item.attributes.items():
        size += len(name.encode("utf-8"))
        size += sum(len(v) if isinstance(v, bytes) else len(v.encode("utf-8"))
                    for v in values)
    return size


def test_memoised_size_bytes_tracks_content(cloud, db):
    """The memoised size equals a fresh recomputation at every step:
    after put, get and scan, and after a bit flip replaces the item."""
    items = [_item("ename", "u1", uri="été.xml", values=(b"\x01\x02", "x")),
             _item("ename", "u2", values=("a", "bé")),
             _item("wgold", "u3", uri="d.xml", values=(b"\x05" * 9,))]
    for item in items:
        assert item.size_bytes == _fresh_size(item)  # sized at construction

    def scenario():
        yield from db.put("idx", items[0])
        yield from db.batch_put("idx", items[1:])
        got = yield from db.get("idx", "ename")
        batch = yield from db.batch_get("idx", ["ename", "wgold"])
        scanned = yield from db.scan("idx")
        return got, batch, scanned

    got, batch, scanned = cloud.env.run_process(scenario())
    for item in got + batch["ename"] + batch["wgold"] + scanned:
        assert item.size_bytes == _fresh_size(item)
    assert db.raw_bytes(["idx"]) == sum(_fresh_size(i) for i in items)

    before = db.table("idx").all_items()[0]
    assert db.corrupt_attribute("idx", before.hash_key, before.range_key,
                                "été.xml", byte_index=0, bit=7)
    after = db.table("idx").all_items()[0]
    assert after is not before  # replaced, never mutated in place
    assert before.size_bytes == _fresh_size(before)
    assert after.size_bytes == _fresh_size(after)
    assert after.attributes["été.xml"][0] == b"\x81\x02"
    assert db.raw_bytes(["idx"]) == sum(
        _fresh_size(i) for i in db.table("idx").all_items())

    # A flip inside a text value can change its UTF-8 length (the
    # flipped byte decodes to U+FFFD); the replacement's size follows.
    text_item = db.table("idx").all_items()[1]
    assert db.corrupt_attribute("idx", text_item.hash_key,
                                text_item.range_key, "doc.xml",
                                byte_index=0, bit=7)
    flipped = db.table("idx").all_items()[1]
    assert flipped.size_bytes == _fresh_size(flipped)
    assert flipped.size_bytes != text_item.size_bytes
