"""Closed label vocabularies used to classify bare path labels.

A bare label in a path is either a dependency parse label, a POS tag, or
nothing we know about, which the parser refuses. A handful of names
(punct, det, num, aux, conj, x, expl, mark) exist in both worlds; those are
resolved as parse labels, and the POS reading stays reachable through an
explicit ``[@pos="..."]`` condition.
"""

from __future__ import annotations

# Union of the universal Stanford-style relation set and the label set
# emitted by the common cloud/treebank parsers. punct is the canonical
# punctuation relation; p is kept as an alias seen in older dumps.
PARSE_LABELS: frozenset[str] = frozenset(
    """
    root acomp advcl advmod amod appos attr aux auxpass cc ccomp compmod
    conj csubj csubjpass dep det discourse dobj expl goeswith infmod iobj
    mark mwe neg nn nmod npadvmod nsubj nsubjpass num number p parataxis
    partmod pcomp pobj poss possessive preconj predet prep prt punct quantmod
    rcmod rel tmod vmod xcomp obj obl case clf cop dislocated fixed flat
    list nummod orphan reparandum vocative acl
    """.split()
)

# Universal POS tags, lowercase, covering both the 12-tag universal set and
# the extended tagset (propn, sconj, ...) that queries use for proper nouns.
POS_TAGS: frozenset[str] = frozenset(
    """
    adj adp adv aux cconj conj det intj noun num part particle pron propn
    punct sconj sym verb x prt
    """.split()
)

PL = "pl"
POS = "pos"


def classify_label(label: str) -> str | None:
    """Classify a bare path label; quoted tokens never reach this point.

    Returns ``"pl"``, ``"pos"`` or None for unknown names. Shared names
    resolve as parse labels.
    """
    if label in PARSE_LABELS:
        return PL
    if label in POS_TAGS:
        return POS
    return None


# Small function-word list used to decide which descriptor words are worth
# expanding through the embedding provider. Overridable per provider.
STOPWORDS: frozenset[str] = frozenset(
    """
    a an the of in on at to for with and or but is are was were be been am
    this that these those it its his her their our your my i you he she we
    they as by from up down out off over under again then once here there
    all any both each few more most other some such no nor not only own same
    so than too very can will just should now
    """.split()
)
