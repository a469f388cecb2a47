"""A small tf-idf inverted index with cosine ranking."""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Iterable, Optional

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_STOPWORDS = frozenset(
    "a an and are as at be by for from has in is it of on or the to was with".split()
)


def tokenize_text(text: str) -> list[str]:
    """Lower-case alphanumeric tokens minus stopwords."""
    return [
        token
        for token in _TOKEN_RE.findall(text.lower())
        if token not in _STOPWORDS
    ]


class InvertedIndex:
    """Documents -> postings with tf-idf cosine scoring."""

    def __init__(self):
        self._postings: dict[str, dict] = {}  # term -> {doc_id: tf}
        self._doc_lengths: dict = {}  # doc_id -> token count
        self._docs: dict = {}  # doc_id -> original text

    def add(self, doc_id, text: str) -> None:
        if doc_id in self._docs:
            self.remove(doc_id)
        tokens = tokenize_text(text)
        self._docs[doc_id] = text
        self._doc_lengths[doc_id] = len(tokens) or 1
        for term, count in Counter(tokens).items():
            self._postings.setdefault(term, {})[doc_id] = count

    def remove(self, doc_id) -> None:
        if doc_id not in self._docs:
            return
        del self._docs[doc_id]
        del self._doc_lengths[doc_id]
        for postings in self._postings.values():
            postings.pop(doc_id, None)

    def __len__(self):
        return len(self._docs)

    def __contains__(self, doc_id):
        return doc_id in self._docs

    def search(self, query: str, limit: int = 20) -> list[tuple]:
        """Ranked `(doc_id, score)` for the query (tf-idf dot product)."""
        terms = tokenize_text(query)
        if not terms or not self._docs:
            return []
        n_docs = len(self._docs)
        scores: dict = {}
        for term in terms:
            postings = self._postings.get(term)
            if not postings:
                continue
            idf = math.log(1.0 + n_docs / len(postings))
            for doc_id, tf in postings.items():
                weight = (tf / self._doc_lengths[doc_id]) * idf
                scores[doc_id] = scores.get(doc_id, 0.0) + weight
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return ranked[:limit]

    def snippet(self, doc_id, query: str, width: int = 60) -> str:
        """A short context window around the first query-term occurrence."""
        text = self._docs.get(doc_id, "")
        lowered = text.lower()
        for term in tokenize_text(query):
            position = lowered.find(term)
            if position >= 0:
                start = max(position - width // 2, 0)
                return text[start : start + width].strip()
        return text[:width].strip()
