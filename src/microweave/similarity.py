"""Name normalization and semantic similarity for entity matching.

Similarity between entity names across services is the maximum of three
strategies:

* ``exact``   -- 1.0 when the normalized token lists are equal;
* ``token``   -- Jaccard index of the token sets;
* ``taxonomy``-- mean Wu-Palmer score over a greedy one-to-one pairing of the
  tokens both present in a concept taxonomy (0 without a taxonomy).

Wu-Palmer over a rooted taxonomy: ``2 * depth(lcs(a, b)) / (depth(a) + depth(b))``
where the root has depth 1 and ``lcs`` is the deepest common ancestor.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from microweave.errors import MalformedDocument, TermNotFound

#: Tokens dropped during normalization (decorative naming suffixes).
STRIP_TOKENS = ("dto", "entity", "model", "impl", "vo")

_TOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")


def normalize_entity_name(raw: str) -> list[str]:
    """Split an identifier on camelCase/snake_case/digit boundaries.

    Tokens are lowercased and the decorative ``STRIP_TOKENS`` are dropped; when
    stripping would leave nothing, the whole lowercased name is kept instead.
    """
    tokens = [t.lower() for t in _TOKEN_RE.findall(raw)]
    stripped = [t for t in tokens if t not in STRIP_TOKENS]
    if stripped:
        return stripped
    return [raw.lower()] if raw else []


class Taxonomy:
    """A rooted concept tree with unique terms.

    Built from text where each line is one term and two spaces of indentation
    per level encode the tree; the first line is the root.
    """

    def __init__(self, root: str):
        self._parent: dict[str, str | None] = {root: None}
        self._ancestors: dict[str, frozenset[str]] = {}
        self.root = root

    def add(self, term: str, parent: str) -> None:
        if term in self._parent:
            raise MalformedDocument(f"duplicate taxonomy term {term!r}")
        if parent not in self._parent:
            raise TermNotFound(f"unknown parent term {parent!r}")
        self._parent[term] = parent

    def __contains__(self, term: str) -> bool:
        return term in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def ancestors(self, term: str) -> frozenset[str]:
        """The term itself and its ancestors up to the root, computed on
        first use.  A term's ancestry never changes once it is added."""
        found = self._ancestors.get(term)
        if found is None:
            if term not in self._parent:
                raise TermNotFound(f"term {term!r} not in taxonomy")
            chain = [term]
            cur = self._parent[term]
            while cur is not None:
                chain.append(cur)
                cur = self._parent[cur]
            found = self._ancestors[term] = frozenset(chain)
        return found


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse the indentation-based taxonomy text format."""
    root: Taxonomy | None = None
    stack: list[str] = []  # stack[i] = current term at level i
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        if not raw_line.strip():
            continue
        indent = len(raw_line) - len(raw_line.lstrip(" "))
        if indent % 2 != 0:
            raise MalformedDocument(f"line {lineno}: odd indentation ({indent} spaces)")
        level = indent // 2
        term = raw_line.strip()
        if root is None:
            if level != 0:
                raise MalformedDocument(f"line {lineno}: first line must be the unindented root")
            root = Taxonomy(term)
            stack = [term]
            continue
        if level == 0:
            raise MalformedDocument(f"line {lineno}: second root {term!r} (taxonomy must have one root)")
        if level > len(stack):
            raise MalformedDocument(f"line {lineno}: indentation jumps more than one level")
        root.add(term, parent=stack[level - 1])
        del stack[level:]
        stack.append(term)
    if root is None:
        raise MalformedDocument("empty taxonomy document")
    return root


def load_taxonomy_file(path) -> Taxonomy:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_taxonomy(fh.read())


def wu_palmer(a: str, b: str, taxonomy: Taxonomy) -> float:
    """Wu-Palmer similarity of two taxonomy terms, in (0, 1].

    A term's depth is the size of its ancestor set, and the common ancestors
    of two terms are the path from the root to their deepest common
    ancestor, so their number is that ancestor's depth."""
    ancestors_a = taxonomy.ancestors(a)
    ancestors_b = taxonomy.ancestors(b)
    return 2.0 * len(ancestors_a & ancestors_b) / (len(ancestors_a) + len(ancestors_b))


def greedy_pairing(rows: Iterable[tuple[float, int, int]]) -> list[tuple[float, int, int]]:
    """A greedy one-to-one pairing of scored ``(score, i, j)`` rows.

    Rows are taken by descending score, then ascending ``i`` and ``j``; a row
    is kept when neither its ``i`` nor its ``j`` is in a row kept before it.
    The kept rows come in that order."""
    used_a: set[int] = set()
    used_b: set[int] = set()
    kept = []
    for row in sorted(rows, key=lambda row: (-row[0], row[1], row[2])):
        if row[1] in used_a or row[2] in used_b:
            continue
        used_a.add(row[1])
        used_b.add(row[2])
        kept.append(row)
    return kept


def _taxonomy_score(tokens_a: list[str], tokens_b: list[str], taxonomy: Taxonomy) -> float:
    """Mean Wu-Palmer over a greedy one-to-one pairing of covered tokens."""
    known_a = [t for t in tokens_a if t in taxonomy]
    known_b = [t for t in tokens_b if t in taxonomy]
    if not known_a or not known_b:
        return 0.0
    pairs = greedy_pairing(
        (wu_palmer(ta, tb, taxonomy), ia, ib)
        for ia, ta in enumerate(known_a)
        for ib, tb in enumerate(known_b)
    )
    scores = [score for score, _ia, _ib in pairs]
    return sum(scores) / len(scores)


def entity_similarity(a: str, b: str, taxonomy: Taxonomy | None = None) -> tuple[float, str]:
    """Score two entity names in [0, 1] and report the winning strategy.

    The score is the max over the exact/token/taxonomy strategies; ties go to
    the earlier strategy in that order.
    """
    tokens_a = normalize_entity_name(a)
    tokens_b = normalize_entity_name(b)

    set_a, set_b = set(tokens_a), set(tokens_b)
    union = set_a | set_b
    token = len(set_a & set_b) / len(union) if union else 0.0

    tax = _taxonomy_score(tokens_a, tokens_b, taxonomy) if taxonomy is not None else 0.0

    # The exact strategy is only a candidate when it actually holds; a
    # non-match must fall through to token/taxonomy rather than win a
    # zero-score tie.
    candidates = [("token", token), ("taxonomy", tax)]
    if tokens_a == tokens_b:
        candidates.insert(0, ("exact", 1.0))

    best = max(score for _name, score in candidates)
    for strategy, score in candidates:
        if score == best:
            return best, strategy
    raise AssertionError("unreachable")
