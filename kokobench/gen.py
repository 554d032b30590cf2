"""Seeded inputs for the koko benchmark: the corpus TSV, the query list of
each workload and the resource files of the evidence queries.

This module imports nothing from koko on purpose. The benchmark owns its
inputs, so a change to koko's own generator, data model or TSV writer
cannot change what a workload runs. The same (seed, sentence count) gives
byte-identical outputs; `pinned.json` holds their SHA-256 for the pinned
seed.

The corpus follows the shape of koko's synthetic bench corpus: projective
random trees over a Zipf-skewed syllable vocabulary, ten sentences per
document, one entity mention in about 30% of sentences. It adds what the
evidence workload needs and the syllable words lack: coordinators and
punctuation for the clause decomposer, and capitalised entity names that
recur across documents.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

SYLLABLES = [
    "ba", "be", "bo", "da", "de", "di", "fa", "fo", "ga", "ge", "ka", "ko",
    "la", "le", "li", "ma", "me", "mi", "na", "no", "pa", "po", "ra", "re",
    "ri", "sa", "se", "so", "ta", "te", "ti", "va", "vo", "za", "zo",
]
CHILD_LABELS = [
    "nsubj", "dobj", "det", "amod", "advmod", "prep", "pobj", "nn", "conj",
    "cc", "aux", "punct", "xcomp", "ccomp", "poss", "num", "mark", "rcmod",
]
LABEL_WEIGHTS = [18, 15, 13, 11, 9, 8, 8, 7, 5, 4, 4, 4, 3, 3, 2, 2, 1, 1]
POS_CHOICES = ["noun", "verb", "adj", "adv", "pron", "propn", "adp", "sconj"]
POS_WEIGHTS = [30, 18, 12, 9, 8, 7, 10, 6]
# Cumulative weights, so that `choices` does not sum them on every call.
LABEL_CUM = list(itertools.accumulate(LABEL_WEIGHTS))
POS_CUM = list(itertools.accumulate(POS_WEIGHTS))
ENTITY_TYPES = ["Entity", "Person", "GPE", "Date", "Organization"]
COORDINATORS = ["and", "but", "or"]
PUNCTUATION = [",", ";", "."]

VOCABULARY = 400
NAMES = 80
SENTENCES_PER_DOC = 10
ENTITY_RATE = 0.3
VECTOR_DIM = 8

# Queries per workload. A run checks every distinct query it ran against
# the oracle, which takes 0.6-0.9 s per span query on the default corpus,
# so the span list stays at 30 queries.
TREE_PATHS_PER_STRATUM = 2
TREE_PATTERN_SIZES = (3, 4, 5, 6, 7, 8, 9, 10)
TREE_PATTERNS_PER_SIZE = 3
SPAN_QUERIES_PER_ATOM_COUNT = 10
EVIDENCE_QUERIES = 12
DESCRIPTORS = 24


class Sent:
    """One generated sentence; `children` and `depth` are derived."""

    __slots__ = ("sid", "words", "pos", "labels", "heads", "etags", "root", "children", "depth")

    def __init__(self, sid, words, pos, labels, heads, etags):
        self.sid = sid
        self.words = words
        self.pos = pos
        self.labels = labels
        self.heads = heads
        self.etags = etags
        self.root = heads.index(-1)
        self.children = [[] for _ in words]
        for tid, head in enumerate(heads):
            if head != -1:
                self.children[head].append(tid)
        self.depth = [0] * len(words)
        stack = [self.root]
        while stack:
            tid = stack.pop()
            for c in self.children[tid]:
                self.depth[c] = self.depth[tid] + 1
                stack.append(c)

    def __len__(self) -> int:
        return len(self.words)

    def root_chain(self, tid: int) -> list[int]:
        chain = [tid]
        while self.heads[chain[-1]] != -1:
            chain.append(self.heads[chain[-1]])
        chain.reverse()
        return chain


def _words(rng: random.Random, size: int, capitalise: bool) -> list[str]:
    out: set[str] = set()
    while len(out) < size:
        w = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3)))
        out.add(w.capitalize() if capitalise else w)
    return sorted(out)


def _zipf(rng: random.Random, items: list[str]) -> str:
    n = len(items)
    return items[max(0, min(n - 1, int(n ** rng.random()) - 1))]


def _shape(rng: random.Random, n: int) -> tuple[list[int], list[str], list[str]]:
    heads = [-1] * n
    labels = ["root"] * n
    poses = [rng.choices(POS_CHOICES, cum_weights=POS_CUM)[0] for _ in range(n)]

    def build(lo: int, hi: int, head: int) -> None:
        if lo > hi:
            return
        root = rng.randint(lo, hi)
        heads[root] = head
        if head == -1:
            poses[root] = "verb"
        else:
            labels[root] = rng.choices(CHILD_LABELS, cum_weights=LABEL_CUM)[0]
        for side_lo, side_hi in ((lo, root - 1), (root + 1, hi)):
            pos = side_lo
            while pos <= side_hi:
                end = rng.randint(pos, side_hi)
                build(pos, end, root)
                pos = end + 1

    build(0, n - 1, -1)
    return heads, labels, poses


def make_corpus(seed: int, n_sentences: int) -> tuple[list[list[Sent]], list[str], list[str]]:
    """Documents of sentences, plus the common vocabulary and entity names."""
    rng = random.Random(seed)
    vocab = _words(rng, VOCABULARY, capitalise=False)
    names = _words(rng, NAMES, capitalise=True)
    docs: list[list[Sent]] = []
    for sid in range(n_sentences):
        if not docs or len(docs[-1]) >= SENTENCES_PER_DOC:
            docs.append([])
        n = rng.randint(6, 13)
        heads, labels, poses = _shape(rng, n)
        words = []
        for label in labels:
            if label == "cc":
                words.append(rng.choice(COORDINATORS))
            elif label == "punct":
                words.append(rng.choice(PUNCTUATION))
            else:
                words.append(_zipf(rng, vocab))
        etags = ["O"] * n
        if rng.random() < ENTITY_RATE:
            start = rng.randrange(n)
            etype = rng.choice(ENTITY_TYPES)
            for k in range(min(rng.randint(1, 2), n - start)):
                etags[start + k] = ("B-" if k == 0 else "I-") + etype
                words[start + k] = _zipf(rng, names)
        docs[-1].append(Sent(sid, words, poses, labels, heads, etags))
    return docs, vocab, names


def corpus_tsv(docs: list[list[Sent]]) -> str:
    out: list[str] = []
    for d, doc in enumerate(docs):
        out.append(f"# doc_id = doc{d}")
        for s in doc:
            for tid in range(len(s)):
                out.append("\t".join((
                    str(s.sid), str(tid), s.words[tid], s.pos[tid], s.labels[tid],
                    str(s.heads[tid]), s.etags[tid],
                )))
            out.append("")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Query shapes follow fixed schedules rather than dice rolls: which labels
# a query names, which word-frequency rank its literals have and where its
# axes, POS tests and wildcards sit depend only on the query's position in
# the list. The seed picks the vocabulary and the sentences the queries are
# cut from. So every seed gets the same mix of selective and unselective
# queries, and a run's latency median does not hinge on a lucky draw.

LABEL_CYCLE = ["nsubj", "dobj", "det", "amod", "advmod", "prep", "pobj", "nn", "conj", "aux"]
# Word-frequency bands by rank in the Zipf vocabulary: frequent, middling, rare.
WORD_BANDS = [(0, 8), (8, 40), (40, 160)]


def _word_ranks(sents: list[Sent]) -> dict[str, int]:
    """Frequency rank of each vocabulary word; coordinators, punctuation
    and entity names are not ranked."""
    counts: dict[str, int] = {}
    for s in sents:
        for w in s.words:
            if w.islower() and w not in COORDINATORS:
                counts[w] = counts.get(w, 0) + 1
    ranked = sorted(counts, key=lambda w: (-counts[w], w))
    return {w: i for i, w in enumerate(ranked)}


# Tree workload: single-variable paths over every stratum of length, label
# attributes, wildcard and anchoring, plus rooted tree patterns.


def _sample_chain(rng: random.Random, sents: list[Sent], length: int, rooted: bool, last_label: str) -> list[tuple[Sent, int]]:
    """Head chain of `length` tokens ending in a token labelled `last_label`.
    Rooted chains start at the sentence root, unrooted ones below it. Both
    conditions are dropped in turn when the corpus is too small to meet
    them."""
    for attempt in range(4000):
        s = sents[rng.randrange(len(sents))]
        ends = [
            t for t in range(len(s))
            if (s.labels[t] == last_label or attempt >= 2000)
            and (s.depth[t] == length - 1 if rooted else s.depth[t] >= length - (attempt >= 1000))
        ]
        if ends:
            chain = s.root_chain(rng.choice(ends))
            return [(s, t) for t in chain[-length:]]
    raise ValueError("corpus too small to sample a label chain")


def _render_path(chain, variant: int, attrs: str, wildcard: bool, rooted: bool, swap_last: str | None) -> str:
    n = len(chain)
    pos_positions = set(range(1, n, 2)) if attrs != "pl" else set()
    descendant_step = 1 + variant % (n - 1) if variant % 2 else None
    parts: list[str] = []
    for i, (s, tid) in enumerate(chain):
        axis = "//" if (i == 0 and not rooted) or i == descendant_step else "/"
        label = swap_last if i == n - 1 and swap_last is not None else s.labels[tid]
        conds: list[str] = []
        if i in pos_positions:
            # The POS test narrows the label rather than replacing it, so
            # the scheduled label keeps setting the path's selectivity.
            conds.append(f'@pos="{s.pos[tid]}"')
        if wildcard and i == (n - 1) // 2:
            label = "*"
            conds = []
        if attrs == "pl_pos_text" and i == n - 1:
            conds.append(f'@text="{s.words[tid]}"')
        parts.append(axis + label + (f"[{', '.join(conds)}]" if conds else ""))
    return "".join(parts)


def _tree_pattern(rng: random.Random, sents: list[Sent], size: int) -> str:
    for _ in range(400):
        s = sents[rng.randrange(len(sents))]
        if len(s) < size:
            continue
        anchor, path, used = s.root, "/root", 1
        if size >= 3 and s.children[s.root] and rng.random() < 0.5:
            anchor = rng.choice(s.children[s.root])
            path += "/" + s.labels[anchor]
            used = 2
        defs = [f"x = {path}"]
        var_of = {anchor: "x"}
        frontier = list(s.children[anchor])
        rng.shuffle(frontier)
        ci = 0
        while used < size and frontier:
            child = frontier.pop(0)
            ci += 1
            defs.append(f"c{ci} = {var_of[s.heads[child]]}/{s.labels[child]}")
            var_of[child] = f"c{ci}"
            used += 1
            frontier.extend(s.children[child])
        if used < size:
            continue
        outs = ", ".join(["x:Str"] + [f"c{i}:Str" for i in range(1, ci + 1)])
        body = ",\n    ".join(defs)
        return f'extract {outs} from "bench" if (\n/ROOT:{{\n    {body}\n}}\n)'
    raise ValueError("corpus too small to sample a tree pattern")


def tree_queries(rng: random.Random, sents: list[Sent]) -> list[str]:
    out: list[str] = []
    for length in (2, 3, 4, 5):
        for attrs in ("pl", "pl_pos", "pl_pos_text"):
            for wildcard in (False, True):
                for rooted in (True, False):
                    for _ in range(TREE_PATHS_PER_STRATUM):
                        k = len(out)
                        chain = _sample_chain(rng, sents, length, rooted, LABEL_CYCLE[k % len(LABEL_CYCLE)])
                        # Every fifth path gets its last label swapped, so
                        # some paths select little or nothing.
                        swap = LABEL_CYCLE[(k + 3) % len(LABEL_CYCLE)] if k % 5 == 4 else None
                        path = _render_path(chain, k // 2, attrs, wildcard, rooted, swap)
                        out.append(f'extract v:Str from "bench" if (/ROOT:{{ v = {path} }})')
    for size in TREE_PATTERN_SIZES:
        for _ in range(TREE_PATTERNS_PER_SIZE):
            out.append(_tree_pattern(rng, sents, size))
    return out


# Span workload: 1, 3 and 5 atoms mixing literal words, paths and elastic
# gaps, cut from one sentence so most queries match somewhere. Each atom's
# target is fixed by its slot: the exact frequency rank of a word, the
# label, and the head's label of a path. Only which word holds that rank
# depends on the seed, so a slot selects about as much on every seed.

ATOM_KINDS = ["word", "label", "word", "path", "label"]
# One rank from each band of WORD_BANDS, in turn.
WORD_RANKS = [3, 20, 70, 1, 12, 45, 5, 30, 60]
PATH_HEADS = ["root", "prep", "nsubj", "dobj"]


def _atom_fits(s: Sent, tid: int, kind: str, target, ranks: dict[str, int], level: int) -> bool:
    """Whether token `tid` can stand for the atom. Level 0 asks for the
    exact targets; from level 1 a word may have any rank of its band, and
    at level 2 a path may have any head label."""
    if kind == "word":
        rank = ranks.get(s.words[tid])
        if rank is None:
            return False
        if level == 0:
            return rank == target
        return any(lo <= rank < hi and lo <= target < hi for lo, hi in WORD_BANDS)
    label, head = target
    if kind == "label":
        return s.labels[tid] == label
    return s.labels[tid] == label and s.heads[tid] != -1 and (level == 2 or s.labels[s.heads[tid]] == head)


def _render_atom(s: Sent, tid: int, kind: str) -> str:
    if kind == "word":
        return f'"{s.words[tid]}"'
    if kind == "label":
        return "//" + s.labels[tid]
    return "//" + s.labels[s.heads[tid]] + "/" + s.labels[tid]


def span_queries(rng: random.Random, sents: list[Sent]) -> list[str]:
    ranks = _word_ranks(sents)
    order = rng.sample(range(len(sents)), len(sents))
    out: list[str] = []
    slot = 0
    for atoms in (1, 3, 5):
        n_anchors = (atoms + 1) // 2
        for k in range(SPAN_QUERIES_PER_ATOM_COUNT):
            plan = []
            for _ in range(n_anchors):
                kind = ATOM_KINDS[slot % len(ATOM_KINDS)]
                if kind == "word":
                    target = WORD_RANKS[slot % len(WORD_RANKS)]
                else:
                    target = (LABEL_CYCLE[slot % len(LABEL_CYCLE)], PATH_HEADS[slot % len(PATH_HEADS)])
                plan.append((kind, target))
                slot += 1
            # The first sentence, in a seeded order, that holds the exact
            # targets; relaxed ones only where no sentence does.
            first = rng.randrange(len(sents))
            found = None
            for level in (0, 1, 2):
                for si in order[first:] + order[:first]:
                    s = sents[si]
                    picked: list[int] = []
                    for kind, target in plan:
                        start = picked[-1] + 1 if picked else 0
                        fits = [t for t in range(start, len(s)) if _atom_fits(s, t, kind, target, ranks, level)]
                        if not fits:
                            break
                        picked.append(fits[0])
                    if len(picked) == n_anchors:
                        found = s, picked
                        break
                if found:
                    break
            if found is None:
                raise ValueError("corpus too small to sample span atoms")
            s, picked = found
            parts: list[str] = []
            for i, ((kind, _), tid) in enumerate(zip(plan, picked)):
                if i:
                    parts.append("^")
                parts.append(_render_atom(s, tid, kind))
            expr = " + ".join(parts)
            if k == SPAN_QUERIES_PER_ATOM_COUNT - 1:
                # One guaranteed near-miss per atom count.
                expr = expr.replace('"', '"zz', 1) if '"' in expr else expr + '[@text="zzmiss"]'
            out.append(f'extract v:Str from "bench" if (/ROOT:{{ v = {expr} }})')
    return out


# ---------------------------------------------------------------------------
# Evidence workload: entity extraction scored by every condition kind, with
# generated resources.


def _entity_context(sents: list[Sent]) -> tuple[list[str], list[str], list[str]]:
    """Surfaces, words right after an entity and words right before one."""
    surfaces: list[str] = []
    after: list[str] = []
    before: list[str] = []
    for s in sents:
        tids = [t for t in range(len(s)) if s.etags[t] != "O"]
        if not tids:
            continue
        surfaces.append(" ".join(s.words[t] for t in tids))
        if tids[-1] + 1 < len(s) and s.words[tids[-1] + 1][0].isalpha():
            after.append(s.words[tids[-1] + 1])
        if tids[0] > 0 and s.words[tids[0] - 1][0].isalpha():
            before.append(s.words[tids[0] - 1])
    return surfaces, after, before


def resource_files(rng: random.Random, vocab: list[str], names: list[str], surfaces: list[str]) -> tuple[dict[str, str], list[str]]:
    """Expansion table, word vectors and dictionary, plus the descriptors."""
    descriptors = sorted({
        " ".join(_zipf(rng, vocab) for _ in range(rng.randint(1, 2)))
        for _ in range(DESCRIPTORS)
    })
    rows = []
    for d in descriptors:
        for _ in range(rng.randint(2, 5)):
            alt = " ".join(_zipf(rng, vocab) for _ in range(len(d.split())))
            rows.append(f"{d}\t{alt}\t{rng.randint(1, 100) / 100:.2f}")
    vectors = []
    for w in vocab + names:
        vectors.append(w + " " + " ".join(f"{rng.gauss(0.0, 1.0):.4f}" for _ in range(VECTOR_DIM)))
    known = sorted(set(surfaces))
    dictionary = rng.sample(known, len(known) // 3) if known else []
    return {
        "expansions.tsv": "\n".join(rows) + "\n",
        "vectors.txt": "\n".join(vectors) + "\n",
        "known.txt": "\n".join(sorted(dictionary)) + "\n",
    }, descriptors


def evidence_queries(rng: random.Random, context, names: list[str], descriptors: list[str]) -> list[dict]:
    """Each query uses every condition kind once. Descriptors expand through
    the table and `similarTo` scores through the word vectors, so every
    query costs about the same."""
    surfaces, after, before = context
    after = after or ["ba"]
    before = before or ["ba"]
    out: list[dict] = []
    for k in range(EVIDENCE_QUERIES):
        name = rng.choice(names)
        first = rng.choice("ABDFGKLMNPRSTVZ")
        conds = [
            f'(str(x) contains "{name}" {{1}})',
            f'(str(x) matches "[{first}-Z][a-z]+( [A-Z][a-z]+)?" {{0.2}})'
            if k % 2 == 0 else '(str(x) in dict("Known") {0.4})',
            f'(x "{rng.choice(after)}" {{0.5}})' if k % 2 == 0 else f'("{rng.choice(before)}" x {{0.5}})',
            f'(x near "{rng.choice(after + before)}" {{0.3}})',
            f'(x [["{rng.choice(descriptors)}"]] {{0.3}})',
            f'([["{rng.choice(descriptors)}"]] x {{0.3}})',
            f'(x similarTo "{rng.choice(surfaces) if surfaces else name}" {{0.4}})',
        ]
        text = (
            'extract x:Entity from "bench" if ()\nsatisfying x\n    '
            + " or\n    ".join(conds)
            + f"\nwith threshold 0.{rng.randint(3, 6)}\nexcluding\n"
            + f'    (str(x) contains "{rng.choice(names)}") or\n'
            + f'    (str(x) matches "{rng.choice("ABDFGKLMNPRSTVZ")}[a-z]*")'
        )
        out.append({"text": text, "expansion": "both"})
    return out


# ---------------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_inputs(seed: int, n_sentences: int) -> dict:
    """Everything a run needs, as JSON-ready data.

    `queries` maps each workload to its list of operations. An operation
    is ``{"text": ..., "expansion": None | "table" | "both"}``; the cli
    workload rotates a tree path, a span query and an evidence query.
    """
    docs, vocab, names = make_corpus(seed, n_sentences)
    sents = [s for doc in docs for s in doc]
    rng = random.Random(seed * 1_000_003 + 17)
    tree = [{"text": t, "expansion": None} for t in tree_queries(rng, sents)]
    span = [{"text": t, "expansion": None} for t in span_queries(rng, sents)]
    context = _entity_context(sents)
    files, descriptors = resource_files(rng, vocab, names, context[0])
    evidence = evidence_queries(rng, context, names, descriptors)
    # A rooted length-3 path and a 3-atom span query: selective enough that
    # loading dominates each cli operation, as it does for a typical user.
    cli = [
        tree[12 * TREE_PATHS_PER_STRATUM],
        span[SPAN_QUERIES_PER_ATOM_COUNT],
        # The CLI takes one expansion provider.
        {"text": evidence[0]["text"], "expansion": "table"},
    ]
    queries = {"cli": cli, "tree": tree, "span": span, "evidence": evidence}
    tsv = corpus_tsv(docs)
    return {
        "tsv": tsv,
        "files": files,
        "queries": queries,
        "corpus_sha256": sha256(tsv),
        "queries_sha256": {w: sha256(json.dumps(q, sort_keys=True)) for w, q in queries.items()},
    }
