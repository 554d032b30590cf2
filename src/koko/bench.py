"""Synthetic corpora, benchmark query suites and evaluation metrics.

The tree suite holds 350 queries: 240 single-variable path queries over
every combination of path length 2-5, attribute mix (parse labels alone,
with POS tags, with token text), wildcard presence and root anchoring
(5 queries each), plus 110 tree-pattern queries with 3 to 10 labels. The
span suite holds 300 queries with 1, 3 and 5 atoms (100 each) mixing path
atoms, elastic spans and literal words. Queries are sampled from actual
corpus material across frequency bands so selectivity varies; a small
fraction is mutated to miss on purpose. Everything is reproducible from
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .corpus import AnnotatedDocument, Corpus, EntitySpan, Sentence, child_lists
from .engine import evaluate, run_query
from .errors import KokoInputError
from .indexes import IndexBundle
from .oracle import oracle_evaluate
from .parser import parse_query
from .resources import Resources
from .syntax import Query

_SYLLABLES = [
    "ba", "be", "bo", "da", "de", "di", "fa", "fo", "ga", "ge", "ka", "ko",
    "la", "le", "li", "ma", "me", "mi", "na", "no", "pa", "po", "ra", "re",
    "ri", "sa", "se", "so", "ta", "te", "ti", "va", "vo", "za", "zo",
]

_CHILD_LABELS = [
    "nsubj", "dobj", "det", "amod", "advmod", "prep", "pobj", "nn", "conj",
    "cc", "aux", "punct", "xcomp", "ccomp", "poss", "num", "mark", "rcmod",
]
_LABEL_WEIGHTS = [18, 15, 13, 11, 9, 8, 8, 7, 5, 4, 4, 4, 3, 3, 2, 2, 1, 1]

_POS_CHOICES = ["noun", "verb", "adj", "adv", "pron", "propn", "adp", "sconj"]
_POS_WEIGHTS = [30, 18, 12, 9, 8, 7, 10, 6]

_ENTITY_TYPES = ["Entity", "Person", "GPE", "Date", "Organization"]


def _make_vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        n = rng.randint(2, 3)
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(n)))
    return sorted(words)


def _zipf_pick(rng: random.Random, items: list[str]) -> str:
    # Harmonic-ish skew: low ranks dominate, the tail stays reachable.
    n = len(items)
    r = rng.random()
    idx = int(n ** r) - 1
    return items[max(0, min(n - 1, idx))]


@dataclass
class _TreeShape:
    """Sentence columns shared by every sentence drawn from one shape."""

    heads: tuple[int | None, ...]
    labels: tuple[str, ...]
    pos: tuple[str, ...]


def _random_shape(rng: random.Random, n: int) -> _TreeShape:
    heads: list[int | None] = [None] * n
    labels = ["root"] * n
    pos_tags = [rng.choices(_POS_CHOICES, _POS_WEIGHTS)[0] for _ in range(n)]

    def build(lo: int, hi: int, head: int | None) -> None:
        if lo > hi:
            return
        root = rng.randint(lo, hi)
        if head is None:
            heads[root] = None
            labels[root] = "root"
            pos_tags[root] = "verb"
        else:
            heads[root] = head
            labels[root] = rng.choices(_CHILD_LABELS, _LABEL_WEIGHTS)[0]
        for side_lo, side_hi in ((lo, root - 1), (root + 1, hi)):
            pos = side_lo
            while pos <= side_hi:
                end = rng.randint(pos, side_hi)
                build(pos, end, root)
                pos = end + 1

    build(0, n - 1, None)
    return _TreeShape(heads=tuple(heads), labels=tuple(labels), pos=tuple(pos_tags))


def synthesize_corpus(
    seed: int,
    n_sentences: int,
    *,
    vocabulary: int = 400,
    min_len: int = 6,
    max_len: int = 13,
    shape_pool: int | None = None,
    entity_rate: float = 0.3,
    sentences_per_doc: int = 10,
) -> list[AnnotatedDocument]:
    """Seeded random corpus of projective dependency trees."""
    rng = random.Random(seed)
    vocab = _make_vocabulary(rng, vocabulary)
    pool: dict[int, list[_TreeShape]] = {}
    docs: list[AnnotatedDocument] = []
    doc: AnnotatedDocument | None = None
    for sid in range(n_sentences):
        if doc is None or len(doc.sentences) >= sentences_per_doc:
            doc = AnnotatedDocument(doc_id=f"doc{len(docs)}")
            docs.append(doc)
        n = rng.randint(min_len, max_len)
        if shape_pool is not None:
            shapes = pool.setdefault(n, [])
            if len(shapes) < shape_pool:
                shapes.append(_random_shape(rng, n))
            shape = rng.choice(shapes)
        else:
            shape = _random_shape(rng, n)
        entities = []
        if rng.random() < entity_rate:
            start = rng.randrange(n)
            length = min(rng.randint(1, 2), n - start)
            entities.append(EntitySpan(sid, start, start + length - 1, rng.choice(_ENTITY_TYPES)))
        texts = [_zipf_pick(rng, vocab) for _ in range(n)]
        doc.sentences.append(
            Sentence(sid, texts, shape.pos, shape.labels, shape.heads, entities)
        )
    return docs


# ---------------------------------------------------------------------------
# Suite generation


@dataclass
class BenchQuery:
    qid: str
    kind: str  # path | tree | span
    params: dict
    text: str


@dataclass
class BenchmarkSuite:
    name: str
    seed: int
    queries: list[BenchQuery] = field(default_factory=list)
    composition: dict = field(default_factory=dict)


def _sample_chain(
    rng: random.Random, corpus: Corpus, length: int, rooted: bool
) -> tuple[Sentence, list[int]]:
    """Contiguous head-chain of the requested length from a random
    sentence: the sentence and the chain's tids, top first."""
    for _ in range(200):
        s = corpus.sentences[rng.randrange(len(corpus.sentences))]
        deep = [tid for tid, d in enumerate(s.depth) if d >= length - 1]
        if not deep:
            continue
        tid = rng.choice(deep)
        chain = [*reversed(list(s.ancestors(tid))), tid]
        if rooted:
            picked = chain[:length]
        else:
            hi = len(chain) - length
            start = rng.randint(1, hi) if hi >= 1 else 0
            picked = chain[start : start + length]
        return s, picked
    raise KokoInputError("corpus too small to sample a label chain for benchmark generation")


def _render_path(
    rng: random.Random,
    s: Sentence,
    tids: list[int],
    labels: list[str],
    attrs: str,
    wildcard: bool,
    rooted: bool,
) -> str:
    """Path over the chain `tids` of `s`, naming each step by `labels`
    (the chain's own labels, or with the last one swapped)."""
    parts: list[str] = []
    pos_positions: list[int] = []
    if attrs in ("pl_pos", "pl_pos_text") and len(tids) > 1:
        k = max(1, len(tids) // 2)
        pos_positions = rng.sample(range(1, len(tids)), min(k, len(tids) - 1))
    text_position = rng.randrange(len(tids)) if attrs == "pl_pos_text" else None
    wild_position = rng.randrange(len(tids)) if wildcard else None
    for i, tid in enumerate(tids):
        axis = "/" if (rooted if i == 0 else rng.random() < 0.8) else "//"
        if i == 0 and not rooted:
            axis = "//"
        label = labels[i]
        conds: list[str] = []
        if i in pos_positions:
            conds.append(f'@pos="{s.pos[tid]}"')
            label = "*"
        if i == wild_position:
            label = "*"
            conds = []
        if text_position == i:
            conds.append(f'@text="{s.tokens[tid]}"')
        rendered = label + (f"[{', '.join(conds)}]" if conds else "")
        parts.append(axis + rendered)
    return "".join(parts)


def generate_tree_suite(seed: int, corpus: Corpus) -> BenchmarkSuite:
    if not corpus.sentences:
        raise KokoInputError("cannot generate benchmark queries from an empty corpus")
    rng = random.Random(seed)
    suite = BenchmarkSuite(name="tree", seed=seed)
    qid = 0
    for length in (2, 3, 4, 5):
        for attrs in ("pl", "pl_pos", "pl_pos_text"):
            for wildcard in (False, True):
                for rooted in (True, False):
                    for k in range(5):
                        s, tids = _sample_chain(rng, corpus, length, rooted)
                        labels = [s.labels[tid] for tid in tids]
                        if k == 4:
                            # One query per setting gets its last label
                            # swapped, so some queries select little or
                            # nothing.
                            labels[-1] = rng.choices(_CHILD_LABELS, _LABEL_WEIGHTS)[0]
                        path = _render_path(rng, s, tids, labels, attrs, wildcard, rooted)
                        text = f'extract v:Str from "bench" if (/ROOT:{{ v = {path} }})'
                        suite.queries.append(BenchQuery(
                            qid=f"tree-{qid:03d}",
                            kind="path",
                            params={
                                "length": length, "attrs": attrs,
                                "wildcard": wildcard, "rooted": rooted, "variant": k,
                            },
                            text=text,
                        ))
                        qid += 1
    tree_counts = {3: 14, 4: 14, 5: 14, 6: 14, 7: 14, 8: 14, 9: 13, 10: 13}
    for size, count in tree_counts.items():
        for k in range(count):
            suite.queries.append(BenchQuery(
                qid=f"tree-{qid:03d}",
                kind="tree",
                params={"labels": size, "variant": k},
                text=_tree_pattern_query(rng, corpus, size),
            ))
            qid += 1
    suite.composition = {"path": 240, "tree": 110, "note": "path/tree split chosen here"}
    return suite


def _tree_pattern_query(rng: random.Random, corpus: Corpus, size: int) -> str:
    """Pattern with `size` labels: a rooted base path plus child variables
    chained off the variables of their actual parents."""
    for _ in range(400):
        s = corpus.sentences[rng.randrange(len(corpus.sentences))]
        if len(s) < size:
            continue
        children = child_lists(s.heads)
        anchor = s.root_tid
        path = "/root"
        used = 1
        if size >= 3 and children[s.root_tid] and rng.random() < 0.5:
            anchor = rng.choice(children[s.root_tid])
            path += "/" + s.labels[anchor]
            used = 2
        defs = [f"x = {path}"]
        var_of_token = {anchor: "x"}
        frontier = list(children[anchor])
        rng.shuffle(frontier)
        ci = 0
        while used < size and frontier:
            child = frontier.pop(0)
            ci += 1
            name = f"c{ci}"
            parent_var = var_of_token[s.heads[child]]
            defs.append(f"{name} = {parent_var}/{s.labels[child]}")
            var_of_token[child] = name
            used += 1
            frontier.extend(children[child])
        if used < size:
            continue
        outs = ", ".join(["x:Str"] + [f"c{i}:Str" for i in range(1, ci + 1)])
        body = ",\n    ".join(defs)
        return f'extract {outs} from "bench" if (\n/ROOT:{{\n    {body}\n}}\n)'
    raise KokoInputError("corpus too small to sample a tree pattern for benchmark generation")


def _span_atom(rng: random.Random, s: Sentence, tid: int) -> str:
    roll = rng.random()
    if roll < 0.4:
        return f'"{s.tokens[tid]}"'
    if roll < 0.75 or s.depth[tid] == 0:
        return "//" + s.labels[tid]
    return "//" + s.labels[s.heads[tid]] + "/" + s.labels[tid]


def generate_span_suite(seed: int, corpus: Corpus) -> BenchmarkSuite:
    if not corpus.sentences:
        raise KokoInputError("cannot generate benchmark queries from an empty corpus")
    rng = random.Random(seed)
    suite = BenchmarkSuite(name="span", seed=seed)
    qid = 0
    for atoms in (1, 3, 5):
        for k in range(100):
            n_anchors = (atoms + 1) // 2
            for _ in range(300):
                s = corpus.sentences[rng.randrange(len(corpus.sentences))]
                if len(s) < n_anchors * 2:
                    continue
                anchors = sorted(rng.sample(range(len(s)), n_anchors))
                parts = []
                for i, tid in enumerate(anchors):
                    if i:
                        parts.append("^")
                    parts.append(_span_atom(rng, s, tid))
                expr = " + ".join(parts)
                break
            else:
                raise KokoInputError("corpus too small to sample span atoms")
            if k >= 97:
                # A few guaranteed near-misses for selectivity spread.
                if '"' in expr:
                    expr = expr.replace('"', '"zz', 1)
                else:
                    expr += '[@text="zzmiss"]'
            text = f'extract v:Str from "bench" if (/ROOT:{{ v = {expr} }})'
            suite.queries.append(BenchQuery(
                qid=f"span-{qid:03d}", kind="span",
                params={"atoms": atoms, "variant": k}, text=text,
            ))
            qid += 1
    suite.composition = {"per_atom_count": 100, "atom_counts": [1, 3, 5]}
    return suite


# ---------------------------------------------------------------------------
# Metrics


def effectiveness(candidate_sids: set[int], answer_sids: set[int]) -> float:
    """Answer sentences over index-returned candidate sentences."""
    if not candidate_sids and not answer_sids:
        return 1.0
    if not candidate_sids:
        return 0.0
    return len(answer_sids) / len(candidate_sids)


@dataclass
class QueryReport:
    qid: str
    kind: str
    params: dict
    lookup_ms: float
    eval_ms: float
    candidates: int
    answers: int
    dpli_effectiveness: float
    final_effectiveness: float
    complete: bool
    iterations_gsp: int
    iterations_nogsp: int
    rows: int

    def to_json(self) -> dict:
        return self.__dict__.copy()


def run_benchmark(
    suite: BenchmarkSuite,
    corpus: Corpus,
    bundle: IndexBundle,
    resources: Resources | None = None,
    with_oracle: bool = True,
) -> list[QueryReport]:
    resources = resources if resources is not None else Resources()
    reports: list[QueryReport] = []
    for bq in suite.queries:
        q = parse_query(bq.text)
        run = run_query(q, corpus, bundle, resources=resources)
        nogsp_iters = evaluate(q, corpus, bundle, use_gsp=False).stats.loop_iterations
        candidates = set(run.candidate_sids)
        if with_oracle:
            oracle_rows = oracle_evaluate(q, corpus, resources=resources)
            answers = {r.sid for r in oracle_rows}
        else:
            answers = run.answer_sids
        reports.append(QueryReport(
            qid=bq.qid,
            kind=bq.kind,
            params=bq.params,
            lookup_ms=run.lookup_seconds * 1000.0,
            eval_ms=run.eval_seconds * 1000.0,
            candidates=len(candidates),
            answers=len(answers),
            dpli_effectiveness=effectiveness(candidates, answers),
            final_effectiveness=effectiveness(run.answer_sids, answers),
            complete=answers <= candidates,
            iterations_gsp=run.stats.loop_iterations,
            iterations_nogsp=nogsp_iters,
            rows=len(run.rows),
        ))
    return reports
