"""Content hashing for index items and loader batches.

Two consumers, one canonical byte form:

- the **mapper** (``range_key_mode="content"``) derives each item's
  range key from the SHA-256 of its hash key and attribute content, and
  stamps a CRC-32 checksum attribute on the item.  Content-addressed
  keys make rewrites physically idempotent — re-running a loader batch
  stores byte-identical items under identical primary keys, which is
  what lets a resumed or redelivered build converge instead of
  duplicating postings;
- the **batch ledger and scrubber** hash whole entry batches and verify
  stored items against their stamped checksums.

Checksum attributes are named with a ``#`` prefix; readers treat any
``#``-prefixed attribute as bookkeeping, never as a document URI.
Because the canonical form excludes them, one canonical byte string
serves both the CRC-32 stamp and the SHA-256 range key of an item
(:func:`canonical_checksum`, :func:`canonical_range_key`).

The canonical form prefixes the hash key with its *character* count
but attribute names and values with their *byte* counts (the two differ
for non-ASCII keys).  The asymmetry is frozen: changing it would re-key
every content-addressed item and change every recorded ledger hash and
epoch digest.
"""

from __future__ import annotations

import hashlib
import uuid
import zlib
from typing import Mapping, Sequence, Tuple, Union

AttrValue = Union[str, bytes]

#: Attribute carrying the item's CRC-32 (hex) over its canonical bytes.
CHECKSUM_ATTR = "#crc"

#: Prefix marking bookkeeping attributes that are not document URIs.
META_ATTR_PREFIX = "#"


def canonical_item_bytes(hash_key: str,
                         attributes: Mapping[str, Tuple[AttrValue, ...]],
                         ) -> bytes:
    """Canonical byte form of an item's index content.

    Attribute names are sorted and ``#``-prefixed bookkeeping attributes
    are excluded, so the form is stable under dict ordering and under
    stamping the checksum itself.  Length-prefixed fields keep the
    encoding injective (no concatenation ambiguity).
    """
    parts = [b"k%d:%s" % (len(hash_key), hash_key.encode("utf-8"))]
    append = parts.append
    for name in sorted(attributes):
        if name.startswith(META_ATTR_PREFIX):
            continue
        encoded = name.encode("utf-8")
        append(b"a%d:%s" % (len(encoded), encoded))
        for value in attributes[name]:
            raw = value if isinstance(value, bytes) else value.encode("utf-8")
            append(b"v%d:%s" % (len(raw), raw))
    return b"".join(parts)


def canonical_checksum(canonical: bytes) -> str:
    """CRC-32 (8 hex digits) of already-built canonical bytes."""
    return "%08x" % (zlib.crc32(canonical) & 0xFFFFFFFF)


def canonical_range_key(canonical: bytes) -> str:
    """UUID-shaped range key from already-built canonical bytes."""
    digest = hashlib.sha256(canonical).digest()
    return str(uuid.UUID(bytes=digest[:16], version=4))


def item_checksum(hash_key: str,
                  attributes: Mapping[str, Tuple[AttrValue, ...]]) -> str:
    """CRC-32 (8 hex digits) of the item's canonical bytes."""
    return canonical_checksum(canonical_item_bytes(hash_key, attributes))


def content_range_key(hash_key: str,
                      attributes: Mapping[str, Tuple[AttrValue, ...]],
                      ) -> str:
    """Deterministic UUID-shaped range key from the item's content.

    Keeps the §6 wire format (a UUID string) while replacing the random
    draw with SHA-256, so the same content always lands on the same
    primary key — concurrent writers of *different* content still never
    collide, and rewriters of the *same* content overwrite in place.
    """
    return canonical_range_key(canonical_item_bytes(hash_key, attributes))


def batch_content_hash(canonical_forms: Sequence[bytes]) -> str:
    """SHA-256 (hex) over a batch's canonical item forms, order-sensitive.

    The ledger records this per batch; a redelivery that would produce
    different content (a determinism bug) is caught by comparing hashes.
    """
    digest = hashlib.sha256()
    for form in canonical_forms:
        digest.update(str(len(form)).encode("ascii"))
        digest.update(b":")
        digest.update(form)
    return digest.hexdigest()
