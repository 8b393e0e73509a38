"""Ontology substrate.

An ontology graph :math:`G_{Ont} = (V_{Ont}, E_{Ont})` is a directed acyclic
graph whose vertices are type labels and whose edges ``(l', l)`` mean ``l'``
is a direct supertype of ``l`` (SubClassOf / SubTypeOf).  BiG-index uses it
to pick label generalizations; the typing helper assigns ontology types to
untyped entities the way the paper handles DBpedia (Sec. 6.1.2).
"""
