"""Index entries: what a strategy extracts from one document.

Table 2 defines an indexing strategy as a function returning tuples
``(k, (a, v+)+)+``: a key, an attribute named by the document URI, and
that attribute's values.  An :class:`IndexEntry` is one
``(key, URI, values)`` triple; its payload is one of:

- **presence** — no values (the LU ε);
- **paths** — the node's root-to-node label paths (LUP);
- **ids** — the node's structural identifiers, sorted by ``pre`` (LUI).

Extraction helpers walk a document once and group nodes by key, which
every concrete strategy then projects into its own payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, NamedTuple, Tuple

from repro.indexing.keys import (attribute_key, attribute_value_key,
                                 element_key, text_word_keys)
from repro.xmldb.encoding import encode_ids
from repro.xmldb.ids import NodeID
from repro.xmldb.model import Attribute, Document, Element, Text


@dataclass(frozen=True)
class IndexEntry:
    """One ``(key, URI, payload)`` index tuple."""

    key: str
    uri: str
    paths: Tuple[str, ...] = ()
    ids: Tuple[NodeID, ...] = ()

    def __post_init__(self) -> None:
        if self.paths and self.ids:
            raise ValueError("an entry carries paths or ids, not both")
        for previous, current in zip(self.ids, self.ids[1:]):
            if current.pre <= previous.pre:
                raise ValueError("entry IDs must be sorted by pre")

    @property
    def kind(self) -> str:
        """``"presence"``, ``"paths"`` or ``"ids"``."""
        if self.paths:
            return "paths"
        if self.ids:
            return "ids"
        return "presence"

    @cached_property
    def stored_values(self) -> Tuple[Any, ...]:
        """The values stored under the URI attribute: one encoded ID
        blob (ids), the label paths (paths) or nothing (presence).

        Memoised — the entry is frozen, and both the write path and the
        batch ledger hash need the encoded form.
        """
        if self.ids:
            return (encode_ids(self.ids),)
        return tuple(self.paths)


class StoredEntry(NamedTuple):
    """A ``(key, URI, stored values)`` triple already in stored form.

    Compaction folds payloads that are already encoded; it hands them
    to the DynamoDB write path and the ledger hash as-is, which read
    only ``key``, ``uri`` and ``stored_values`` — the same three names
    an :class:`IndexEntry` answers to.
    """

    key: str
    uri: str
    stored_values: Tuple[Any, ...]


@dataclass
class KeyOccurrences:
    """All occurrences of one key within one document."""

    key: str
    #: Node IDs, in extraction (document) order.
    ids: List[NodeID] = field(default_factory=list)
    #: Distinct label paths, in first-seen order.
    paths: List[str] = field(default_factory=list)
    _seen_paths: set = field(default_factory=set)

    def add(self, node_id: NodeID, path: str) -> None:
        """Record one occurrence (ID always; path if new)."""
        self.ids.append(node_id)
        if path not in self._seen_paths:
            self._seen_paths.add(path)
            self.paths.append(path)


def _node_keys(document: Document,
               include_words: bool) -> Iterator[Tuple[str, NodeID, str]]:
    """Yield ``(key, id, path)`` for every key of every node.

    Word keys and word paths use the *text node's* identifier and its
    parent element's path plus the word step — matching Figure 3/4
    (``wOlympia`` → (4, 2, 3), path ``/epainting/ename/wOlympia``).
    """
    for node in document.iter_nodes():
        if isinstance(node, Element):
            yield element_key(node.label), node.node_id, node.path
        elif isinstance(node, Attribute):
            # Two keys per attribute: name-only and name+value (§5).
            base_path = node.path
            yield attribute_key(node.name), node.node_id, base_path
            value_key = attribute_value_key(node.name, node.value)
            parent_path = base_path.rsplit("/", 1)[0]
            yield value_key, node.node_id, "{}/{}".format(parent_path, value_key)
        elif isinstance(node, Text) and include_words:
            for key in text_word_keys(node.value):
                yield key, node.node_id, "{}/{}".format(node.parent_path, key)


def collect_occurrences(document: Document,
                        include_words: bool = True,
                        ) -> Dict[str, KeyOccurrences]:
    """Group a document's nodes by index key, in one pass.

    IDs inside each group come out sorted by ``pre`` because the walk is
    a pre-order traversal — the LUI invariant (§5.3) for free.  Word
    keys may repeat per text node; duplicates of the *same* ID are
    collapsed.
    """
    groups: Dict[str, KeyOccurrences] = {}
    for key, node_id, path in _node_keys(document, include_words):
        group = groups.get(key)
        if group is None:
            group = KeyOccurrences(key=key)
            groups[key] = group
        if group.ids and group.ids[-1] == node_id:
            continue  # same word twice in one text node
        group.add(node_id, path)
    return groups
