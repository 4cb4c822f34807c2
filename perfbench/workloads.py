"""The three workloads: seeded documents, operation rounds, plaintext references.

Everything here is a function of ``(workload, seed, scale)``: the same seed
gives the same document, the same rounds in the same order, and the same
expected answers.  Expected answers never come from the secret-shared path:
``//tag`` answers are the pre-order ids of that tag in this module's own walk
of the plaintext document, XPath answers come from the plaintext reference
evaluator (:func:`repro.xpath.evaluate_xpath`), and edit-mix keeps a
plaintext mirror (:class:`PlainTree`) that applies every edit itself.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.workloads import (
    CATALOG_QUERIES,
    CatalogConfig,
    RandomXmlConfig,
    generate_catalog_document,
    generate_random_document,
)
from repro.xmltree import XmlDocument, XmlElement
from repro.xpath import evaluate_xpath

WORKLOADS = ("lookup-large", "xpath-catalog", "edit-mix")

#: Document make-up per workload and scale, and how many set-ups an
#: untraced run times (``setup_s`` is their median).  ``full`` is what the
#: benchmark measures; ``tiny`` keeps the benchmark's own tests fast.
SIZES = {
    "full": {"lookup-large": 40_000, "edit-mix": 40_000,
             "catalog": dict(customers=25, products=12, warehouses=2),
             "setup_reps": 3},
    "tiny": {"lookup-large": 600, "edit-mix": 400,
             "catalog": dict(customers=3, products=4, warehouses=1),
             "setup_reps": 1},
}

#: Seed of every document's shape (see :func:`make_document`).
SHAPE_SEED = 2004

#: Shape shared by the two random documents (the BENCH_3/4/6 shape).
TAG_VOCABULARY = 48
TAG_SKEW = 1.6
MAX_DEPTH = 14

#: How each workload is stored and served, and how many sessions drive it.
SERVING = {
    "lookup-large": dict(store="sqlite", transport="threaded", sessions=1),
    "xpath-catalog": dict(store="json", transport="async", sessions=2),
    "edit-mix": dict(store="sqlite", transport="threaded", sessions=1),
}

#: Rounds every run completes, however short ``--seconds`` is.  Count
#: metrics (bytes, round trips, query counts) are taken over exactly these
#: rounds, so they repeat exactly for a given seed.
COUNT_ROUNDS = {"lookup-large": 2, "xpath-catalog": 4, "edit-mix": 3}

#: Insert-parent depths of one edit-mix round (shallow, middle, deep).
EDIT_PARENT_DEPTHS = (3, 7, 11)


class PlainTree:
    """A plaintext copy of the document, numbered in pre-order from 0.

    This is the numbering the encoder gives the shared tree, so a node id
    means the same element on both sides.  The tree is mutable so edit-mix
    can apply each edit to it and predict the server's answers.
    """

    def __init__(self, document: XmlDocument) -> None:
        self.tag: Dict[int, str] = {}
        self.parent: Dict[int, Optional[int]] = {}
        self.children: Dict[int, List[int]] = {}
        self.by_tag: Dict[str, set] = {}
        #: ``id(element) -> node id`` for the original document's elements.
        self.element_ids: Dict[int, int] = {}
        #: Original node ids by depth (edit-mix picks insert parents here).
        self.levels: Dict[int, List[int]] = {}
        depth: Dict[Optional[int], int] = {None: -1}
        for element, node_id, parent_id in _preorder(document.root, 0, None):
            self.element_ids[id(element)] = node_id
            self._add(node_id, parent_id, element.tag)
            depth[node_id] = depth[parent_id] + 1
            self.levels.setdefault(depth[node_id], []).append(node_id)

    def _add(self, node_id: int, parent_id: Optional[int], tag: str) -> None:
        self.tag[node_id] = tag
        self.parent[node_id] = parent_id
        self.children[node_id] = []
        if parent_id is not None:
            self.children[parent_id].append(node_id)
        self.by_tag.setdefault(tag, set()).add(node_id)

    def __len__(self) -> int:
        return len(self.tag)

    def matches(self, tag: str) -> List[int]:
        """Expected answer of ``//tag``: every node carrying the tag."""
        return sorted(self.by_tag.get(tag, ()))

    def path(self, node_id: int) -> str:
        """Slash-separated tag path, root first (as ``tag_path_of`` prints it)."""
        tags = []
        current: Optional[int] = node_id
        while current is not None:
            tags.append(self.tag[current])
            current = self.parent[current]
        return "/".join(reversed(tags))

    def subtree(self, node_id: int) -> List[int]:
        ids, stack = [], [node_id]
        while stack:
            current = stack.pop()
            ids.append(current)
            stack.extend(reversed(self.children[current]))
        return ids

    # -- edits (the mirror side of edit-mix) -----------------------------------
    def insert(self, parent_id: int, element: XmlElement) -> List[int]:
        """Add ``element`` as the last child of ``parent_id``.

        New ids continue from the largest live id, in the subtree's
        pre-order: the allocation rule of the paper's update scheme as this
        repository implements it.  The benchmark checks the server's report
        against these ids rather than adopting them.
        """
        next_id = max(self.tag) + 1
        new_ids = []
        for node, offset, parent_offset in _preorder(element, 0, None):
            parent = parent_id if parent_offset is None else next_id + parent_offset
            self._add(next_id + offset, parent, node.tag)
            new_ids.append(next_id + offset)
        return new_ids

    def delete(self, node_id: int) -> List[int]:
        removed = self.subtree(node_id)
        self.children[self.parent[node_id]].remove(node_id)
        for current in removed:
            self.by_tag[self.tag[current]].discard(current)
            del self.tag[current], self.parent[current], self.children[current]
        return removed

    def rename(self, node_id: int, tag: str) -> None:
        self.by_tag[self.tag[node_id]].discard(node_id)
        self.tag[node_id] = tag
        self.by_tag.setdefault(tag, set()).add(node_id)


def _preorder(root: XmlElement, first_id: int, parent: Optional[int]
              ) -> Iterator[Tuple[XmlElement, int, Optional[int]]]:
    """``(element, id, parent id)`` in pre-order, ids counting from ``first_id``."""
    next_id = first_id
    stack: List[Tuple[XmlElement, Optional[int]]] = [(root, parent)]
    while stack:
        element, parent_id = stack.pop()
        yield element, next_id, parent_id
        stack.extend((child, next_id) for child in reversed(element.children))
        next_id += 1


# -- documents ---------------------------------------------------------------------

def make_document(workload: str, seed: int, scale: str = "full") -> XmlDocument:
    """The seeded plaintext document a workload outsources.

    The document's shape -- tree structure, and how often each tag rank
    occurs -- is generated from a fixed seed, so every ``--seed`` measures
    the same amount of work.  The seed then varies the content over that
    shape: on the random documents it decides which tag name sits at which
    rank (a permutation of the vocabulary), on the catalog the order of the
    customers.  The client secret and the order of every round also come
    from the seed (see :func:`round_ops`).
    """
    sizes = SIZES[scale]
    rng = random.Random(f"perfbench:{workload}:{seed}:document")
    if workload == "xpath-catalog":
        document = generate_catalog_document(CatalogConfig(
            max_orders_per_customer=3, max_items_per_order=4, seed=SHAPE_SEED,
            **sizes["catalog"]))
        customers = document.root.find_all("customers")[0]
        rng.shuffle(customers.children)
        return document
    document = generate_random_document(RandomXmlConfig(
        element_count=sizes[workload], tag_vocabulary_size=TAG_VOCABULARY,
        tag_skew=TAG_SKEW, max_depth=MAX_DEPTH, seed=SHAPE_SEED))
    names = RandomXmlConfig(tag_vocabulary_size=TAG_VOCABULARY).tags()
    shuffled = list(names)
    rng.shuffle(shuffled)
    renamed = dict(zip(names, shuffled))
    for element in document.root.descendants():
        element.tag = renamed[element.tag]
    return document


def rarer_half(plain: PlainTree) -> List[str]:
    """The rarer half of the document's vocabulary, rarest first.

    Ranked by the tag's count in this document (ties by name), root tag
    excluded, so every seed draws from the same rank positions.
    """
    root_tag = plain.tag[0]
    ranked = sorted((len(ids), tag) for tag, ids in plain.by_tag.items()
                    if tag != root_tag and ids)
    return [tag for _, tag in ranked[:max(len(ranked) // 2, 1)]]


def edit_lookup_tags(plain: PlainTree) -> List[str]:
    """Seven evenly spaced ranks of the rarer half (fewer on tiny documents).

    An odd number keeps the lookup median inside one tag's samples rather
    than on the gap between two tags' costs.
    """
    rare = rarer_half(plain)
    step = max(len(rare) // 7, 1)
    return rare[::step][:7]


# -- rounds ---------------------------------------------------------------------------

Op = Tuple  # ("lookup", tag) | ("xpath", query) | edit ops, see edit_round()


def round_ops(workload: str, plain: PlainTree, seed: int, session: int,
              number: int) -> List[Op]:
    """The operations of round ``number`` of one session (seeded, fixed)."""
    rng = random.Random(f"perfbench:{workload}:{seed}:{session}:{number}")
    if workload == "lookup-large":
        tags = rarer_half(plain)
        rng.shuffle(tags)
        return [("lookup", tag) for tag in tags]
    if workload == "xpath-catalog":
        root_tag = plain.tag[0]
        ops = [("xpath", query) for query in CATALOG_QUERIES * 2]
        ops += [("lookup", tag) for tag in sorted(plain.by_tag) if tag != root_tag]
        rng.shuffle(ops)
        return ops
    return edit_round(plain, rng)


def _subtree(tags: Sequence[str], shape: Sequence[Optional[int]]) -> XmlElement:
    """Build a small subtree: ``shape[i]`` is the parent index of node ``i``."""
    nodes: List[XmlElement] = []
    for tag, parent in zip(tags, shape):
        element = XmlElement(tag)
        if parent is not None:
            nodes[parent].add_child(element)
        nodes.append(element)
    return nodes[0]


def edit_round(plain: PlainTree, rng: random.Random) -> List[Op]:
    """One edit-mix round: 3 inserts, 2 renames, 3 deletes, 7 lookups.

    Every subtree a round inserts is deleted again before the round ends,
    so the document returns to its original size and content after every
    round, and renames only touch inserted nodes.  The template is fixed,
    and every round looks up each of the seven lookup tags once; the seed
    picks the parents (one each at depth 3, 7 and 11 of the original
    document), the inserted tags and the lookup order.  A renamed node
    takes the tag of the lookup that follows it.
    """
    tags = edit_lookup_tags(plain)
    parents = [_node_near_depth(plain, depth, rng) for depth in EDIT_PARENT_DEPTHS]
    shapes = [(None, 0, 0), (None, 0, 1, 1, 0), (None, 0)]
    subtrees = [_subtree([rng.choice(tags) for _ in shape], shape)
                for shape in shapes]
    looked = rng.sample(tags, len(tags))
    looked += looked[:7 - len(looked)]       # tiny documents: fewer tags
    return [
        ("insert", 0, parents[0], subtrees[0]),
        ("lookup", looked[0]),
        ("insert", 1, parents[1], subtrees[1]),
        ("lookup", looked[1]),
        ("rename", 0, 0, looked[2]),
        ("lookup", looked[2]),
        ("insert", 2, parents[2], subtrees[2]),
        ("lookup", looked[3]),
        ("delete", 0),
        ("lookup", looked[4]),
        ("rename", 1, 2, looked[5]),
        ("lookup", looked[5]),
        ("delete", 2),
        ("delete", 1),
        ("lookup", looked[6]),
    ]


def _node_near_depth(plain: PlainTree, depth: int, rng: random.Random) -> int:
    """A random original node at ``depth``, or at the deepest level above it."""
    for wanted in range(depth, -1, -1):
        if plain.levels.get(wanted):
            return rng.choice(plain.levels[wanted])
    return 0


def xpath_reference(document: XmlDocument, plain: PlainTree,
                    queries: Sequence[str]) -> Dict[str, List[int]]:
    """Expected XPath answers from the plaintext evaluator, as pre-order ids."""
    return {query: sorted(plain.element_ids[id(element)]
                          for element in evaluate_xpath(document, query))
            for query in queries}
