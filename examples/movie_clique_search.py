#!/usr/bin/env python
"""r-clique search on a movie graph (IMDB-like) — and its memory wall.

Two things from the paper's evaluation, demonstrated end to end:

1. r-clique finds sets of entities pairwise within R hops ("an actor, a
   film and a studio that are all closely related") and BiG-index
   accelerates it by running the search-space decomposition on a summary
   layer (Sec. 5.2's boost-dkws).
2. r-clique's O(mn) neighbor list explodes on dense movie graphs — the
   paper estimates 16 TB on IMDB.  We reproduce the blow-up with a memory
   budget on the IMDB-like stand-in, then show the same query succeeding
   on the YAGO-like graph.

Run:  python examples/movie_clique_search.py
"""

import time

from repro import BiGIndex, CostParams, KeywordQuery, RClique, boost
from repro.datasets import imdb_like, yago_like
from repro.datasets.workloads import generate_queries
from repro.search.rclique import NeighborIndexTooLarge

RADIUS = 4  # the paper's R


def demonstrate_imdb_blowup() -> None:
    dataset = imdb_like(scale=0.3)
    print(f"{dataset.name}: {dataset.stats}")
    budget = 150 * dataset.graph.num_vertices
    print(
        f"building the R={RADIUS} neighbor list with a budget of "
        f"{budget:,} entries..."
    )
    try:
        RClique(radius=RADIUS, max_index_entries=budget).bind(dataset.graph)
        print("unexpectedly fit — try a denser graph")
    except NeighborIndexTooLarge as exc:
        print(f"infeasible, as the paper found on IMDB: {exc}")


def demonstrate_boosted_cliques() -> None:
    dataset = yago_like(scale=0.4)
    print(f"\n{dataset.name}: {dataset.stats}")
    index = BiGIndex.build(
        dataset.graph,
        dataset.ontology,
        num_layers=2,
        cost_params=CostParams(num_samples=20),
    )
    queries = generate_queries(
        dataset.graph,
        [2, 3],
        seed=5,
        min_support=max(5, dataset.graph.num_vertices // 200),
        min_answers=3,
        ontology=dataset.ontology,
    )
    algorithm = RClique(radius=RADIUS, k=5)
    direct_searcher = algorithm.bind(dataset.graph)
    # Generated cliques are re-verified against the data graph's neighbor
    # index (cached from the direct binding).
    boosted = boost(algorithm, index)
    boosted.warm()

    for spec in queries:
        query = spec.query
        start = time.perf_counter()
        direct = direct_searcher.search(query)
        direct_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        result = boosted.evaluate(query, layer=1)
        boosted_ms = (time.perf_counter() - start) * 1e3
        print(
            f"{spec.qid} keywords={spec.keywords}: "
            f"direct {direct_ms:.1f}ms ({len(direct)} cliques), "
            f"boost-dkws {boosted_ms:.1f}ms ({len(result.answers)} cliques)"
        )
        if direct and result.answers:
            print(
                f"   best direct weight {direct[0].score}, "
                f"best boosted weight {result.answers[0].score}"
            )


def main() -> None:
    demonstrate_imdb_blowup()
    demonstrate_boosted_cliques()


if __name__ == "__main__":
    main()
