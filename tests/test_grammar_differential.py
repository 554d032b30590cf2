"""Engine against oracle on queries generated from the query grammar.

Paths mix parse labels, POS tags, ``*`` and quoted words under ``/`` and
``//``, with ``[@pos]``, ``[@text]`` and ``[@etype]`` conditions; tree
queries add relative definitions (``b = a//x``), span queries join node
variables and literals with ``+ ^ +``. The alphabets are read off two
seeded synthetic corpora, so most generated queries match something.
This is the gate for skipping validation on exact paths: any path the
index over-approximates but the engine does not validate shows up as an
extra row.

Literal queries (``v = "w1 w2"``) and entity queries (``extract x:GPE …
if ()``) are the other one-atom joins, answered from the postings with no
nested loop. They run on a third corpus too, whose even documents repeat
each sentence, so that values recur within a document; their rows must
equal the oracle's and the nested loop's, in order and with their scores.

Spans of one to three exactly indexed atoms separated by plain gaps are
offset joins too. Generated ones, and near-misses that must take the
nested loop, are checked against the nested loop with and without skips
and the oracle, over built and loaded bundles.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koko.bench import synthesize_corpus
from koko.corpus import AnnotatedDocument, Corpus, Sentence
import koko.engine
from koko.engine import evaluate, run_query
from koko.indexes import build_indexes, load_bundle, open_corpus, save_bundle
from koko.normalize import ENTITY, NODE, WORDSEQ, normalize
from koko.oracle import oracle_evaluate
from koko.parser import parse_query
from koko.vocab import PARSE_LABELS, POS_TAGS


def _weighted(values) -> list[str]:
    counts = Counter(values)
    total = sum(counts.values())
    return sorted(v for v, k in counts.items() for _ in range(max(1, 50 * k // total)))


def _environment(seed: int):
    docs = synthesize_corpus(seed, 120, entity_rate=0.5)
    return Corpus(docs), build_indexes(docs)


ENVIRONMENTS = {seed: _environment(seed) for seed in (7, 31)}


def _repeated_environment(seed: int):
    """Seed's corpus, with each sentence of an even document twice."""
    docs = []
    sid = 0
    for i, doc in enumerate(synthesize_corpus(seed, 120, entity_rate=0.5)):
        sentences = []
        for s in doc.sentences:
            for _ in range(2 if i % 2 == 0 else 1):
                mentions = [e._replace(sid=sid) for e in s.entities]
                sentences.append(Sentence(sid, s.tokens, s.pos, s.labels, s.heads, mentions))
                sid += 1
        docs.append(AnnotatedDocument(doc.doc_id, sentences))
    return Corpus(docs), build_indexes(docs)


REPEATED = _repeated_environment(7)
_sentences = [s for corpus, _ in ENVIRONMENTS.values() for s in corpus.sentences]
# Frequent values more often: each appears once per 2% of the tokens it
# covers, and at least once.
LABELS = _weighted(label for s in _sentences for label in s.labels)
TAGS = _weighted(tag for s in _sentences for tag in s.pos)
ETYPES = sorted({e.etype for s in _sentences for e in s.entities})
WORDS = sorted(
    {w for corpus, _ in ENVIRONMENTS.values()
     for w, _ in Counter(t for s in corpus.sentences for t in s.tokens).most_common(6)}
)
assert set(LABELS) <= PARSE_LABELS and set(TAGS) <= POS_TAGS - PARSE_LABELS


def _word_sequences() -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """The 2- and 3-word sequences inside the sentences, and those made of
    a sentence's last words and the next sentence's first ones."""
    inside: set[tuple[str, ...]] = set()
    across: set[tuple[str, ...]] = set()
    for corpus, _ in ENVIRONMENTS.values():
        sentences = corpus.sentences
        for s in sentences:
            for k in (2, 3):
                inside.update(s.tokens[i : i + k] for i in range(len(s) - k + 1))
        for a, b in zip(sentences, sentences[1:]):
            across.update({a.tokens[-1:] + b.tokens[:1], a.tokens[-2:] + b.tokens[:1],
                           a.tokens[-1:] + b.tokens[:2]})
    return sorted(inside), sorted(across - inside)


INSIDE, ACROSS = _word_sequences()


@st.composite
def steps(draw, min_size: int = 1, max_size: int = 3, conditions: bool = True) -> str:
    out = []
    for i in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.sampled_from(["label", "label", "tag", "tag", "wild", "wild", "word"]))
        label = {
            "label": st.sampled_from(LABELS),
            "tag": st.sampled_from(TAGS),
            "wild": st.just("*"),
            "word": st.sampled_from(WORDS).map(lambda w: f'"{w}"'),
        }[kind]
        conds = []
        # One POS per step and no @text on a quoted word, so every path
        # decomposes.
        if conditions and kind in ("label", "wild") and draw(st.integers(0, 6)) == 0:
            conds.append(f'@pos="{draw(st.sampled_from(TAGS))}"')
        if conditions and kind != "word" and draw(st.integers(0, 9)) == 0:
            conds.append(f'@text="{draw(st.sampled_from(WORDS))}"')
        if conditions and draw(st.integers(0, 9)) == 0:
            conds.append(f'@etype="{draw(st.sampled_from(ETYPES))}"')
        # A leading `/` binds the sentence root only: keep it rarer.
        rendered = draw(st.sampled_from(["/", "//", "//", "//"] if i == 0 else ["/", "//"])) + draw(label)
        out.append(rendered + (f"[{', '.join(conds)}]" if conds else ""))
    return "".join(out)


@st.composite
def path_queries(draw) -> str:
    """One variable on a plain path: the shapes whose exactness is
    decided by the mix of labels, tags, wildcards and words alone."""
    return f'extract v:Str from "d" if (/ROOT:{{ v = {draw(steps(2, 5, conditions=False))} }})'


@st.composite
def tree_queries(draw) -> str:
    defs = [f"a = {draw(steps())}"]
    if draw(st.booleans()):
        defs.append(f"b = a{draw(steps(max_size=2))}")
        if draw(st.booleans()):
            defs.append(f"c = b{draw(steps(max_size=2))}")
    elif draw(st.booleans()):
        defs.append(f"b = {draw(steps())}")
    names = [d.split(" = ")[0] for d in defs]
    outputs = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    extract = ", ".join(f"{name}:Str" for name in sorted(outputs))
    return f'extract {extract} from "d" if (/ROOT:{{ {", ".join(defs)} }})'


@st.composite
def span_queries(draw) -> str:
    defs = [f"a = {draw(steps())}"]
    names = ["a"]
    if draw(st.booleans()):
        relative = draw(st.booleans())
        defs.append(f"b = {'a' if relative else ''}{draw(steps(max_size=2 if relative else 3))}")
        names.append("b")
    anchor = st.one_of(st.sampled_from(names), st.sampled_from(WORDS).map(lambda w: f'"{w}"'))
    atoms = [draw(anchor)]
    for _ in range(draw(st.integers(1, 2))):
        gap = draw(st.sampled_from(["", "", "^", "^", "^[@max=2]", "^[@min=1, @max=3]"]))
        if gap:
            atoms.append(gap)
        atoms.append(draw(anchor))
    defs.append(f"v = {' + '.join(atoms)}")
    return f'extract v:Str from "d" if (/ROOT:{{ {", ".join(defs)} }})'


# Plain paths three times as often as the others: they are where an
# over-approximating lookup would go unvalidated. With fewer examples, a
# rule widened to mixed label/POS paths was missed under some seeds.
QUERIES = st.one_of(*[path_queries()] * 3, tree_queries(), span_queries())


@st.composite
def literal_queries(draw) -> str:
    words = draw(st.one_of(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(tuple),
        st.sampled_from(INSIDE),
        st.sampled_from(ACROSS),
    ))
    return f'extract v:Str from "d" if (/ROOT:{{ v = "{" ".join(words)}" }})'


ENTITY_QUERIES = st.sampled_from(ETYPES + ["Entity"]).map(
    lambda etype: f'extract x:{etype} from "d" if ()'
)


def test_repeated_environment_has_values_with_and_without_repeats():
    corpus, _ = REPEATED
    for etype in ETYPES:
        repeats = []
        for d in range(len(corpus.doc_ids)):
            surfaces = Counter(
                s.text(e.start, e.end) for s in map(corpus.sentence, corpus.doc_sids(d)) for e in s.entities
                if e.etype == etype
            )
            if surfaces:
                repeats.append(max(surfaces.values()) > 1)
        assert any(repeats) and not all(repeats), etype


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=st.one_of(literal_queries(), literal_queries(), ENTITY_QUERIES))
def test_generated_direct_plans_match_oracle(text):
    q = parse_query(text)
    for corpus, bundle in [*ENVIRONMENTS.values(), REPEATED]:
        run = run_query(q, corpus, bundle, keep_failed=True)
        assert run.joined
        rows = [(r.key(), r.to_json()) for r in run.rows]
        nested = run_query(q, corpus, bundle, keep_failed=True, use_gsp=False)
        assert rows == [(r.key(), r.to_json()) for r in nested.rows]
        assert (run.stats.loop_iterations, run.stats.tuples) == (
            nested.stats.loop_iterations, nested.stats.tuples
        )
        assert rows == [(r.key(), r.to_json()) for r in oracle_evaluate(q, corpus, keep_failed=True)]


@settings(max_examples=800, deadline=None, derandomize=True)
@given(text=QUERIES)
def test_generated_queries_match_oracle(text):
    q = parse_query(text)
    for corpus, bundle in ENVIRONMENTS.values():
        engine = sorted(r.key() for r in run_query(q, corpus, bundle, keep_failed=True).rows)
        assert engine == sorted(r.key() for r in oracle_evaluate(q, corpus, keep_failed=True))


# Chains of index-bound variables: a span over an entity, a literal and a
# path, each variable in turn the most selective. Each query is read off a
# sentence, which it therefore matches, with the seed's kind the one whose
# value occurs least often in the corpus, so the seed is known in advance.
CHAIN_KINDS = ("literal", "path", "entity")


def _chain_queries(corpus: Corpus, seed_kind: str, count: int) -> list[str]:
    sentences = corpus.sentences
    etypes = Counter(e.etype for s in sentences for e in s.entities)
    etypes["Entity"] = sum(etypes.values())
    words = Counter(t for s in sentences for t in s.tokens)
    labels = Counter(label for s in sentences for label in s.labels)
    rng = random.Random(f"{seed_kind}-{len(sentences)}")
    out = []
    while len(out) < count:
        s = rng.choice(sentences)
        if not s.entities:
            continue
        mention = rng.choice(s.entities)
        etype = rng.choice([mention.etype, "Entity"])
        outside = [t for t in range(len(s)) if not mention.start <= t <= mention.end]
        if len(outside) < 2:
            continue
        w, a = rng.sample(outside, 2)
        counts = {"literal": words[s.tokens[w]], "path": labels[s.labels[a]], "entity": etypes[etype]}
        if any(counts[seed_kind] >= k for kind, k in counts.items() if kind != seed_kind):
            continue
        atoms = sorted([(mention.start, "e"), (w, f'"{s.tokens[w]}"'), (a, "a")])
        span = " + ^ + ".join(atom for _, atom in atoms)
        out.append(f'extract e:{etype}, v:Str from "d" if (/ROOT:{{ a = //{s.labels[a]}, v = {span} }})')
    return out


def _full_candidates(corpus: Corpus, n) -> tuple[list[int], dict[str, list[list[int]]]]:
    """Each index-bound variable's first tids per sentence, read off the
    sentences, and the sentences where every one has some."""
    per_var: dict[str, list[list[int]]] = {}
    for var in n.variables.values():
        if var.kind == ENTITY:
            etype = None if var.etype == "Entity" else var.etype
            found = [[e.start for e in s.entities if etype in (None, e.etype)] for s in corpus.sentences]
        elif var.kind == WORDSEQ:
            k = len(var.tokens)
            found = [[t for t in range(len(s) - k + 1) if s.tokens[t : t + k] == var.tokens] for s in corpus.sentences]
        elif var.kind == NODE:
            label = var.path.steps[-1].label
            found = [[t for t in range(len(s)) if s.labels[t] == label] for s in corpus.sentences]
        else:
            continue
        per_var[var.name] = found
    sids = [sid for sid in range(len(corpus)) if all(found[sid] for found in per_var.values())]
    return sids, per_var


@pytest.fixture(scope="module")
def loaded_environments(tmp_path_factory):
    out = {}
    for seed, (_, bundle) in ENVIRONMENTS.items():
        d = str(tmp_path_factory.mktemp(f"chain{seed}"))
        save_bundle(bundle, d)
        loaded = load_bundle(d)
        out[seed] = (open_corpus(loaded), loaded)
    return out


@pytest.mark.parametrize("seed_kind", CHAIN_KINDS)
def test_chains_seeded_by_each_kind_match_the_oracle_and_a_full_binding(seed_kind, loaded_environments):
    rows = 0
    for seed, (corpus, bundle) in ENVIRONMENTS.items():
        for text in _chain_queries(corpus, seed_kind, 20):
            q = parse_query(text)
            n = normalize(q)
            oracle = [(r.key(), r.to_json()) for r in oracle_evaluate(q, corpus, keep_failed=True)]
            sids, per_var = _full_candidates(corpus, n)
            for env in ((corpus, bundle), loaded_environments[seed]):
                run = run_query(q, *env, keep_failed=True)
                assert [(r.key(), r.to_json()) for r in run.rows] == oracle, text
                assert run.candidate_sids == sids, text
                for name, found in per_var.items():
                    assert [run.table.tids(name, sid) for sid in sids] == [found[sid] for sid in sids]
                seed_var = n.var(run.table.chain[0].var)
                assert seed_var.kind == {"literal": WORDSEQ, "path": NODE, "entity": ENTITY}[seed_kind]
            # The last variable was looked for in the sentences left.
            assert len(run.table.chain) == 3 and run.table.chain[-1].within
            rows += len(oracle)
    assert rows >= 40


# Offset joins: spans of one to three atoms the index answers exactly
# (exact PL and POS paths, literals, entities) separated by plain gaps,
# and near-misses of them that must take the nested loop. Named atoms and
# gaps, some of them outputs, are defined in a drawn order, so the nested
# loop's enumeration order (definition order) is not always the chain's.
EXACT_PLAIN = {"label": LABELS, "tag": TAGS}
PAIRS = sorted({w for w in INSIDE + ACROSS if len(w) == 2})
NEAR_MISSES = ("repeated atom", "regex gap", "etype gap", "[@text] path", "hidden variable")


@st.composite
def exact_path(draw) -> str:
    labels = EXACT_PLAIN[draw(st.sampled_from(sorted(EXACT_PLAIN)))]
    out = []
    for i in range(draw(st.integers(1, 2))):
        axis = draw(st.sampled_from(["//", "//", "/"] if i == 0 else ["/", "//"]))
        out.append(axis + draw(st.sampled_from(labels + ["*"])))
    return "".join(out)


@st.composite
def plain_gap(draw) -> str:
    least, most = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    return draw(st.sampled_from([
        "^", "^", f"^[@min={least}]", f"^[@max={most}]", f"^[@min={min(least, most)}, @max={most}]",
    ]))


@st.composite
def join_queries(draw) -> tuple[str, bool]:
    """A query and whether it must be joined."""
    outputs: list[str] = []
    defs: list[str] = []
    chain: list[str] = []
    for i in range(draw(st.integers(1, 3))):
        if i:
            gap = draw(plain_gap())
            if draw(st.integers(0, 3)) == 0:
                defs.append(f"g{i} = {gap}")
                gap = f"g{i}"
                if draw(st.booleans()):
                    outputs.append(f"{gap}:Str")
            chain.append(gap)
        kind = draw(st.sampled_from(["path", "path", "literal", "entity"]))
        if kind == "entity":
            outputs.append(f"x{i}:{draw(st.sampled_from(ETYPES + ['Entity']))}")
            chain.append(f"x{i}")
            continue
        if kind == "path":
            atom = draw(exact_path())
        else:
            words = draw(st.one_of(st.sampled_from(WORDS).map(lambda w: (w,)), st.sampled_from(PAIRS)))
            atom = f'"{" ".join(words)}"'
        if draw(st.booleans()):
            defs.append(f"a{i} = {atom}")
            atom = f"a{i}"
            if draw(st.booleans()):
                outputs.append(f"{atom}:Str")
        chain.append(atom)
    miss = draw(st.sampled_from([None] * 5 + list(NEAR_MISSES)))
    based: list[str] = []  # definitions in order, after the drawn ones
    if miss == "repeated atom":
        if chain[0][0] not in "ax":  # an inline atom: name it
            defs.append(f"r = {chain[0]}")
            chain[0] = "r"
        chain += ["^", chain[0]]
    elif miss in ("regex gap", "etype gap"):
        gap = '^[@regex="[a-z ]+"]' if miss == "regex gap" else f'^[@etype="{draw(st.sampled_from(ETYPES))}"]'
        chain += [gap, draw(exact_path())]
    elif miss == "[@text] path":
        chain += ["^", f'//*[@text="{draw(st.sampled_from(WORDS))}"]']
    elif miss == "hidden variable":
        based += [f"r = //{draw(st.sampled_from(LABELS))}", "h = r/*/*"]
        chain += ["^", "h"]
    if chain[0][0] == "x" and len(chain) == 1 and not defs and draw(st.booleans()):
        return f'extract {outputs[0]} from "d" if ()', True
    body = [*draw(st.permutations(defs)), *based, "v = " + " + ".join(chain)]
    return f'extract {", ".join(["v:Str", *outputs])} from "d" if (/ROOT:{{ {", ".join(body)} }})', miss is None


@pytest.mark.parametrize("loaded", [False, True])
@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=join_queries())
def test_generated_joins_match_the_nested_loop_and_oracle(case, loaded, loaded_environments):
    text, joins = case
    q = parse_query(text)
    for seed, (corpus, bundle) in ENVIRONMENTS.items():
        oracle = [(r.key(), r.to_json()) for r in oracle_evaluate(q, corpus, keep_failed=True)]
        env = loaded_environments[seed] if loaded else (corpus, bundle)
        run = run_query(q, *env, keep_failed=True)
        assert bool(run.joined) == joins, text
        rows = [(r.key(), r.to_json()) for r in run.rows]
        assert rows == oracle, text
        nested = run_query(q, *env, keep_failed=True, use_gsp=False)
        assert rows == [(r.key(), r.to_json()) for r in nested.rows], text
        assert run.candidate_sids == nested.candidate_sids, text
        # The skip-plan nested loop emits the same tuples in the same order.
        with mock.patch.object(koko.engine, "join_plan", return_value=None):
            assert run.tuples == evaluate(q, *env).tuples, text
