"""gnasforge: differentiable dual (micro + macro) architecture search for GNNs."""

from .tensor import Tensor, ParameterStore
from .optim import Adam
from .verify import finite_difference_check
from .graphs import (
    Graph, DatasetSpec, load_graph_json, save_graph_json, random_split,
    generate_sbm, generate_chain_task,
)
from .blocks import BlockSpace, BlockChoice, block_forward
from .controller import Controller, add_noise, extract_indices
from .router import Router, gumbel_sigmoid
from .search import (
    SearchConfig, Genotype, GenotypeNet, Supernet, temp_anneal,
    dual_search, retrain_genotype, grid_search_hidden, compute_loss, evaluate,
)

__all__ = [
    "Tensor", "ParameterStore", "Adam", "finite_difference_check",
    "Graph", "DatasetSpec", "load_graph_json", "save_graph_json", "random_split",
    "generate_sbm", "generate_chain_task",
    "BlockSpace", "BlockChoice", "block_forward",
    "Controller", "add_noise", "extract_indices",
    "Router", "gumbel_sigmoid",
    "SearchConfig", "Genotype", "GenotypeNet", "Supernet", "temp_anneal",
    "dual_search", "retrain_genotype", "grid_search_hidden", "compute_loss", "evaluate",
]

__version__ = "0.1.0"
