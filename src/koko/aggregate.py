"""Final result assembly: the rows of a query's projected tuples, each
scored against its satisfying clauses and checked against its excluding
clause (`koko.evidence`), then deduplicated and ordered.

Finalize takes one tuple shape from every producer (the engine's offset
join, its nested loop and the oracle): ``(sid, values)``, the values
projected in the order of `projected_names`. The join reads them from the
index; the nested loop and the oracle project their bindings through
`projector` while the sentence is in hand. So finalize reads no sentence
to build a row, and its sort and dedup keys come from the values tuple. A
query with neither a satisfying nor an excluding clause builds no
evaluator and is a projection of its tuples.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from .corpus import Corpus, Sentence
from .normalize import NODE, NormalizedQuery
from .record import Record
from .resources import Resources

if TYPE_CHECKING:  # annotations only: gsp imports this module
    from .evidence import EvidenceScore, Locate
    from .gsp import Bound, CandidateTuple


class ResultRow(Record):
    __slots__ = _fields = ("sid", "values", "scores", "passed", "excluded_by")

    def __init__(self, sid: int, values: dict[str, str], scores: dict[str, EvidenceScore], passed: bool,
                 excluded_by: str | None = None) -> None:
        self.sid = sid
        self.values = values
        self.scores = scores
        self.passed = passed
        self.excluded_by = excluded_by

    def key(self) -> tuple:
        return (self.sid, tuple(sorted(self.values.items())), self.passed)

    def to_json(self) -> dict:
        row: dict = {"sid": self.sid, "values": self.values}
        if self.scores:
            row["scores"] = {
                var: {
                    "total": s.total,
                    "threshold": s.threshold,
                    "passed": s.passed,
                    "conditions": [
                        {"condition": c.rendered, "weight": c.weight, "m": c.m}
                        for c in s.conditions
                    ],
                }
                for var, s in self.scores.items()
            }
        return row


# A projected tuple: (sid, values), with one value per `projected_names`
# entry, in that order. The engine's offset join, its nested loop and the
# oracle all hand finalize this one shape.
Projected = tuple[int, tuple[str, ...]]


def projected_names(n: NormalizedQuery) -> tuple[str, ...]:
    """The variables finalize reads, in the order of a projected tuple's
    values: the outputs, then the variables of satisfying and excluding
    conditions that are not outputs."""
    q = n.query
    names = dict.fromkeys(name for name, _ in q.outputs)
    names.update(dict.fromkeys(clause.var for clause in q.satisfying))
    names.update(dict.fromkeys(cond.var for cond in q.excluding))
    return tuple(names)


def value_of(sentence: Sentence, bound: Bound, kind: str) -> str:
    if kind == NODE:
        return sentence.tokens[bound.tid]
    return sentence.text(bound.start, bound.end)


def projector(n: NormalizedQuery) -> Callable[[Sentence, Sequence[CandidateTuple]], list[Projected]]:
    """project(sentence, tuples): the projected tuples of one sentence's
    candidate tuples, read while the sentence is in hand."""
    specs = tuple((name, n.var(name).kind) for name in projected_names(n))

    def project(sentence: Sentence, tuples: Sequence[CandidateTuple]) -> list[Projected]:
        sid = sentence.sid
        return [
            (sid, tuple([value_of(sentence, t.bindings[name], kind) for name, kind in specs]))
            for t in tuples
        ]

    return project


def finalize_results(
    n: NormalizedQuery,
    tuples: Sequence[Projected],
    corpus: Corpus,
    resources: Resources,
    keep_failed: bool = False,
    locate: Locate | None = None,
) -> list[ResultRow]:
    """Score satisfying clauses, apply the excluding clause and build the
    rows of projected tuples (see `projected_names`). Queries with an
    empty if clause deduplicate by value per document; everything else
    keeps bag semantics. Rows are ordered by sid, then by the output
    values in the order of their sorted names (`ResultRow.key`), and read
    no sentence: values come projected. `locate` is handed to each
    document's `EvidenceEvaluator`; a query with neither a satisfying nor
    an excluding clause makes none, and one that also keeps duplicates
    builds its rows in one pass over its sorted tuples. A tuple passes or
    fails on its clauses' `Measures`; score objects are built for the
    rows returned only."""
    q = n.query
    names = projected_names(n)
    index = {name: i for i, name in enumerate(names)}
    shown = names[: len(dict.fromkeys(name for name, _ in q.outputs))]
    # A row's sort and dedup key: its output values in the order of their
    # sorted names, which orders rows as `sorted(values.items())` would.
    order = sorted(range(len(shown)), key=shown.__getitem__)
    key_of = None if order == list(range(len(names))) else lambda v: tuple([v[i] for i in order])
    dedup_mode = not q.defs and not q.constraints
    if not q.satisfying and not q.excluding and not dedup_mode:
        # A projection: every tuple is a passing row, in key order.
        ordered = sorted(tuples) if key_of is None else sorted(tuples, key=lambda t: (t[0], key_of(t[1])))
        return [ResultRow(sid, dict(zip(shown, values)), {}, True) for sid, values in ordered]
    scoring = bool(q.satisfying or q.excluding)
    clauses, excluding = [], []
    if scoring:
        from .evidence import EvidenceEvaluator, QueryPlan

        plan = QueryPlan(resources)
        clauses = [(plan.clause(clause, ci), index[clause.var]) for ci, clause in enumerate(q.satisfying)]
        excluding = [(plan.scorer(cond), index[cond.var]) for cond in q.excluding]
    evaluator: EvidenceEvaluator | None = None
    doc = -1
    rows: list[ResultRow] = []
    keys: list[tuple] = []
    dedup: set[tuple] = set()
    doc_index_of = corpus.doc_index_of

    for t in tuples:
        sid, values = t
        key = values if key_of is None else key_of(values)
        d = doc_index_of(sid)
        if dedup_mode:
            seen = (d, key)
            if seen in dedup:
                continue
            dedup.add(seen)
        if scoring and d != doc:
            # Producers emit tuples in sid order, so a document's evaluator
            # and the occurrences it holds are dropped when the next starts.
            doc = d
            evaluator = EvidenceEvaluator(corpus, resources, corpus.doc_sids(d), locate, plan)
        ok = True
        for clause, i in clauses:
            passed = evaluator.measures(clause, values[i])[0] >= clause.clause.threshold
            ok = ok and passed
        excluded_by: str | None = None
        if ok:
            for scorer, i in excluding:
                if evaluator.measure(scorer, values[i])[0] > 0.0:
                    excluded_by = scorer.rendered
                    ok = False
                    break
        if ok or keep_failed:
            scores = {
                clause.clause.var: evaluator.score(clause.clause, clause.index, values[i]) for clause, i in clauses
            }
            rows.append(ResultRow(sid, dict(zip(shown, values)), scores, ok, excluded_by))
            # A projected tuple whose values are its key is its own sort key.
            keys.append(t if key_of is None else (sid, key))
    return [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)]
