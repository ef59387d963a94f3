"""Node-semantic embedding via word2vec (paper Sec. IV-C).

Each plan node's execution statements are tokenized and embedded with a
word2vec model trained on the *corpus of all plan statements* in the
workload; the node vector is the mean of its statement-token vectors,
optionally augmented with per-node normalized cardinality features.

Candidate plans of one statement share most of their node texts (the
same scans, filters and exchanges), so the token mean is keyed by the
node's statement tuple in a caller-owned memo: within one call each
distinct node text is tokenised and embedded once. The memo is a plain
dict the caller drops when its call returns; nothing outlives it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EncodingError
from repro.plan.physical import PhysicalNode, PhysicalPlan
from repro.text.tokenize import tokenize_statements
from repro.text.word2vec import Word2Vec, Word2VecConfig

__all__ = ["build_statement_corpus", "NodeSemanticEncoder"]

_LOG_ROWS_CAP = math.log1p(1e9)
_LOG_BYTES_CAP = math.log1p(1e12)


def build_statement_corpus(plans: list[PhysicalPlan]) -> list[list[str]]:
    """Token sequences (one per plan node) for word2vec training."""
    corpus: list[list[str]] = []
    for plan in plans:
        for node in plan.nodes():
            tokens = tokenize_statements(node.statements())
            if tokens:
                corpus.append(tokens)
    return corpus


class NodeSemanticEncoder:
    """Word2vec-based node encoder.

    Parameters
    ----------
    word2vec:
        A trained :class:`~repro.text.word2vec.Word2Vec`; use
        :meth:`fit` to train one from plans directly.
    include_cardinality:
        Append ``[log-normalized est_rows, est_bytes]`` per node (the
        paper feeds statistics like cardinality into the model).
    """

    def __init__(self, word2vec: Word2Vec | None = None,
                 include_cardinality: bool = True) -> None:
        self.word2vec = word2vec
        self.include_cardinality = include_cardinality

    @classmethod
    def fit(cls, plans: list[PhysicalPlan],
            config: Word2VecConfig | None = None,
            include_cardinality: bool = True) -> "NodeSemanticEncoder":
        """Train a word2vec model on the plans' statements."""
        corpus = build_statement_corpus(plans)
        if not corpus:
            raise EncodingError("no statements to fit the semantic encoder on")
        model = Word2Vec(config or Word2VecConfig())
        model.train(corpus)
        return cls(word2vec=model, include_cardinality=include_cardinality)

    @property
    def dim(self) -> int:
        """Per-node feature length."""
        if self.word2vec is None:
            raise EncodingError("encoder has no trained word2vec model")
        return self.word2vec.dim + (2 if self.include_cardinality else 0)

    def encode_node(self, node: PhysicalNode,
                    memo: dict[tuple[str, ...], np.ndarray] | None = None,
                    ) -> np.ndarray:
        """Semantic vector of one plan node.

        ``memo`` maps a statement tuple to its token-mean vector; a node
        whose text is already in it skips tokenising and embedding. The
        cardinality columns are always computed from this node.
        """
        if self.word2vec is None:
            raise EncodingError("encoder has no trained word2vec model")
        text = tuple(node.statements())
        vec = None if memo is None else memo.get(text)
        if vec is None:
            vec = self.word2vec.encode_tokens(tokenize_statements(text))
            if memo is not None:
                vec.setflags(write=False)  # shared by every node with this text
                memo[text] = vec
        if not self.include_cardinality:
            return vec
        rows = math.log1p(max(node.est_rows, 0.0)) / _LOG_ROWS_CAP
        size = math.log1p(max(node.est_bytes, 0.0)) / _LOG_BYTES_CAP
        return np.concatenate([vec, [rows, size]])

    def encode_plan_nodes(self, plan: PhysicalPlan,
                          memo: dict[tuple[str, ...], np.ndarray] | None = None,
                          ) -> np.ndarray:
        """Matrix ``(n_nodes, dim)`` of node vectors in execution order."""
        return np.stack([self.encode_node(node, memo) for node in plan.nodes()])
