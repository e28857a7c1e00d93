"""Synthetic replicas of the paper's 12 evaluation graphs (Tables 4–5).

The real datasets (KONECT / LAW web crawls and social networks, up to 5.5
billion edges) are unavailable offline and far beyond a single-core Python
host; DESIGN.md section 2 records the substitution.  Each replica is
deterministic and scaled down by the factor recorded in its spec:

* undirected replicas compose a Chung–Lu power-law background, a planted
  clique (a crisp k*-core so PKMC's early stop fires within a handful of
  sweeps — paper Exp-2's "vertices with large degrees are concentrated"),
  and a long path whose h-index convergence wave forces Local into many
  extra sweeps, the scaled analogue of deep web-graph core hierarchies;
* directed replicas carry power-law hub structure plus a planted S->T
  block — the paper's Table 7 notes that on AM and AR the d_max-level
  w-induced subgraph already equals the [x*, y*]-core.

All replicas are cached in-process; generation is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

from ..errors import DatasetError
from ..graph.directed import DirectedGraph
from ..graph.generators import chung_lu_directed, planted_st_subgraph
from ..graph.undirected import UndirectedGraph
from .synth import build_undirected_replica

__all__ = [
    "DatasetSpec",
    "UNDIRECTED_DATASETS",
    "DIRECTED_DATASETS",
    "dataset_names",
    "get_spec",
    "load_undirected",
    "load_directed",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe and provenance for one synthetic replica."""

    abbr: str
    full_name: str
    kind: Literal["undirected", "directed"]
    category: str
    num_vertices: int
    target_edges: int
    exponent: float
    max_weight: float
    seed: int
    clique_size: int = 0
    path_length: int = 0
    planted_st: tuple[int, int] | None = None
    paper_vertices: int = 0
    paper_edges: int = 0

    @property
    def scale_factor(self) -> float:
        """How many times smaller the replica is than the real graph."""
        if self.target_edges == 0:
            return float("nan")
        return self.paper_edges / self.target_edges


UNDIRECTED_DATASETS: dict[str, DatasetSpec] = {
    spec.abbr: spec
    for spec in [
        DatasetSpec("PT", "Petster", "undirected", "Family link",
                    3_000, 40_000, 2.1, 300.0, 101,
                    clique_size=55, path_length=50,
                    paper_vertices=623_766, paper_edges=15_699_276),
        DatasetSpec("EW", "eswiki-2013", "undirected", "Knowledge",
                    5_000, 55_000, 2.15, 320.0, 102,
                    clique_size=58, path_length=44,
                    paper_vertices=972_933, paper_edges=23_041_488),
        DatasetSpec("EU", "eu-2015", "undirected", "Web",
                    12_000, 90_000, 2.2, 300.0, 103,
                    clique_size=64, path_length=100,
                    paper_vertices=11_264_052, paper_edges=379_731_874),
        DatasetSpec("IT", "it-2004", "undirected", "Web",
                    20_000, 120_000, 2.2, 380.0, 104,
                    clique_size=72, path_length=120,
                    paper_vertices=41_291_594, paper_edges=1_150_725_436),
        DatasetSpec("SK", "sk-2005", "undirected", "Web",
                    25_000, 140_000, 2.15, 420.0, 105,
                    clique_size=80, path_length=130,
                    paper_vertices=50_636_154, paper_edges=1_949_412_601),
        DatasetSpec("UN", "uk-union", "undirected", "Web",
                    32_000, 160_000, 2.1, 450.0, 106,
                    clique_size=85, path_length=120,
                    paper_vertices=133_633_040, paper_edges=5_507_679_822),
    ]
}

DIRECTED_DATASETS: dict[str, DatasetSpec] = {
    spec.abbr: spec
    for spec in [
        # AM and AR are hub-dominated (huge in-degree hubs, like the real
        # Amazon graphs whose d-_max dwarfs d+_max): their w*-induced
        # subgraph is the d_max-level star, so PWC terminates right after
        # the initial prune (Table 7's "results obtained immediately").
        DatasetSpec("AM", "Amazon", "directed", "E-commerce",
                    12_000, 30_000, 2.3, 3_500.0, 201,
                    paper_vertices=403_394, paper_edges=3_387_388),
        DatasetSpec("AR", "Amazon ratings", "directed", "E-commerce",
                    20_000, 35_000, 2.3, 120.0, 202,
                    paper_vertices=3_376_972, paper_edges=5_838_041),
        DatasetSpec("BA", "Baidu", "directed", "Knowledge",
                    15_000, 60_000, 2.2, 100.0, 203, planted_st=(18, 26),
                    paper_vertices=2_141_300, paper_edges=17_794_839),
        DatasetSpec("DL", "DBpedia links", "directed", "Knowledge",
                    40_000, 120_000, 2.15, 600.0, 204, planted_st=(22, 34),
                    paper_vertices=18_268_992, paper_edges=136_537_566),
        DatasetSpec("WE", "Wikilink_en", "directed", "Knowledge",
                    50_000, 180_000, 2.1, 500.0, 205, planted_st=(26, 40),
                    paper_vertices=13_593_032, paper_edges=437_217_424),
        DatasetSpec("TW", "Twitter", "directed", "Social",
                    60_000, 250_000, 2.05, 800.0, 206, planted_st=(30, 48),
                    paper_vertices=52_579_682, paper_edges=1_963_263_821),
    ]
}


def dataset_names(kind: Literal["undirected", "directed"]) -> list[str]:
    """Return dataset abbreviations in the paper's table order."""
    table = UNDIRECTED_DATASETS if kind == "undirected" else DIRECTED_DATASETS
    return list(table)


def get_spec(abbr: str) -> DatasetSpec:
    """Look up a dataset spec by its abbreviation (e.g. ``"SK"``)."""
    spec = UNDIRECTED_DATASETS.get(abbr) or DIRECTED_DATASETS.get(abbr)
    if spec is None:
        raise DatasetError(f"unknown dataset {abbr!r}")
    return spec


@lru_cache(maxsize=None)
def load_undirected(abbr: str) -> UndirectedGraph:
    """Generate (or fetch from cache) an undirected replica."""
    spec = UNDIRECTED_DATASETS.get(abbr)
    if spec is None:
        raise DatasetError(f"unknown undirected dataset {abbr!r}")
    return build_undirected_replica(
        spec.num_vertices,
        spec.target_edges,
        exponent=spec.exponent,
        max_weight=spec.max_weight,
        clique_size=spec.clique_size,
        path_length=spec.path_length,
        seed=spec.seed,
    )


@lru_cache(maxsize=None)
def load_directed(abbr: str) -> DirectedGraph:
    """Generate (or fetch from cache) a directed replica."""
    spec = DIRECTED_DATASETS.get(abbr)
    if spec is None:
        raise DatasetError(f"unknown directed dataset {abbr!r}")
    if spec.planted_st is not None:
        s_size, t_size = spec.planted_st
        graph, _, _ = planted_st_subgraph(
            spec.num_vertices,
            spec.target_edges,
            s_size=s_size,
            t_size=t_size,
            block_probability=0.85,
            max_weight=spec.max_weight,
            seed=spec.seed,
        )
        return graph
    return chung_lu_directed(
        spec.num_vertices,
        spec.target_edges,
        out_exponent=spec.exponent + 0.15,
        in_exponent=spec.exponent,
        max_weight=spec.max_weight,
        seed=spec.seed,
    )

