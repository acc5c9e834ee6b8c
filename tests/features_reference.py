"""Per-token text featurization that the chunked token pass replaces.

`build_vocabulary` and `select_terms` are the two `Counter` rankings of the
training tokens (each splits every text and sorts with a
`(-count, token)` key), `encode_sequence` makes one dictionary call per
token, and `count_terms` splits each text and keeps a Python list of every
token's column. `prepare_text` is the text half of `pipeline.prepare` as it
was built from them. The package never calls these; the property tests
require the package to give exactly what they give.
"""

from collections import Counter
from itertools import repeat

import numpy as np

from jobfraud.features import OOV_ID, PAD_ID


def ranked(texts) -> list:
    counts = Counter()
    for text in texts:
        counts.update(text.split())
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def build_vocabulary(corpus, max_size) -> tuple:
    """(id_to_token, token_to_id): PAD, OOV, then the top max_size - 2."""
    id_to_token = ["<pad>", "<oov>"]
    id_to_token.extend(token for token, _ in ranked(corpus)[: max_size - 2])
    return tuple(id_to_token), {token: i for i, token in enumerate(id_to_token)}


def select_terms(texts, top_k) -> list:
    return [t for t, _ in ranked(texts)[:top_k]]


def encode_sequence(text, token_to_id, length) -> list:
    ids = [token_to_id.get(tok, OOV_ID) for tok in text.split()[:length]]
    ids.extend([PAD_ID] * (length - len(ids)))
    return ids


def encode_sequences(texts, token_to_id, length) -> np.ndarray:
    out = np.zeros((len(texts), length), dtype=np.int64)
    for i, text in enumerate(texts):
        out[i] = encode_sequence(text, token_to_id, length)
    return out


def count_terms(texts, terms) -> np.ndarray:
    index = {t: i for i, t in enumerate(terms)}
    miss = len(terms)
    cols, lengths = [], []
    for text in texts:
        tokens = text.split()
        cols.extend(map(index.get, tokens, repeat(miss)))
        lengths.append(len(tokens))
    width = miss + 1
    flat = np.repeat(np.arange(len(texts)) * width, lengths) + np.array(cols, dtype=np.int64)
    counts = np.bincount(flat, minlength=len(texts) * width).reshape(len(texts), width)
    return counts[:, :miss].astype(np.float64)


def prepare_text(postings, train_rows, numeric, features, kinds) -> dict:
    """The vocabulary, ids, terms and tabular matrix `prepare` gave, for
    the training rows `train_rows` and the `features` config section;
    entries the kinds do not need are None."""
    texts = [p.full_text for p in postings]
    train_texts = [texts[i] for i in train_rows]
    out = dict.fromkeys(("vocabulary", "ids", "terms", "tabular"))
    if "bilstm" in kinds:
        out["vocabulary"], token_to_id = build_vocabulary(train_texts, features.max_tokens)
        out["ids"] = encode_sequences(texts, token_to_id, features.sequence_length)
    if any(k != "bilstm" for k in kinds):
        out["terms"] = select_terms(train_texts, features.tabular_terms)
        out["tabular"] = np.hstack([numeric, count_terms(texts, out["terms"])])
    return out
